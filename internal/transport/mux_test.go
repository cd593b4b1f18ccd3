package transport

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"spider/internal/ids"
)

var testStream = MakeStream(KindBench, 1)

func seqFrame(i int) []byte { return binary.BigEndian.AppendUint32(nil, uint32(i)) }

func seqOf(p []byte) int { return int(binary.BigEndian.Uint32(p)) }

// call is one handler invocation: the sender and the frames' sequence
// numbers.
type call struct {
	from ids.NodeID
	seqs []int
}

func recordCalls(calls *[]call) BatchHandler {
	return func(from ids.NodeID, payloads [][]byte) {
		c := call{from: from}
		for _, p := range payloads {
			c.seqs = append(c.seqs, seqOf(p))
		}
		*calls = append(*calls, c)
	}
}

// TestMuxBacklogLimit: past backlogLimit frames for a stream with no
// handler, the backlog keeps the first backlogLimit in order and drops
// the rest, counting each drop.
func TestMuxBacklogLimit(t *testing.T) {
	var m Mux
	const extra, run = 5, 7
	dropped := 0
	for i := 0; i < backlogLimit+extra; i += run {
		var payloads [][]byte
		for j := i; j < i+run && j < backlogLimit+extra; j++ {
			payloads = append(payloads, seqFrame(j))
		}
		dropped += m.Deliver(1, testStream, payloads)
	}
	if dropped != extra {
		t.Fatalf("dropped %d frames, want %d", dropped, extra)
	}
	var got []int
	m.Handle(testStream, func(_ ids.NodeID, p []byte) { got = append(got, seqOf(p)) })
	if len(got) != backlogLimit {
		t.Fatalf("replayed %d frames, want %d", len(got), backlogLimit)
	}
	for i, s := range got {
		if s != i {
			t.Fatalf("frame %d replayed at position %d", s, i)
		}
	}
	if d := m.Deliver(1, testStream, [][]byte{seqFrame(0)}); d != 0 || len(got) != backlogLimit+1 {
		t.Fatalf("after registration: dropped %d, handled %d", d, len(got))
	}
}

// TestMuxBacklogBounded: frames on a stream of no declared kind are
// dropped before buffering, and over any number of streams the backlog
// is charged at most backlogBytes; a registration that takes its
// stream's backlog frees its share for later frames.
func TestMuxBacklogBounded(t *testing.T) {
	var m Mux
	if d := m.Deliver(1, Stream(1), [][]byte{seqFrame(0)}); d != 1 {
		t.Fatalf("frame of an undeclared stream kind: %d dropped, want 1", d)
	}
	frame := make([]byte, 16<<10)
	cost := len(frame) + frameCost
	const streams = 2 * backlogBytes / (16 << 10)
	dropped := 0
	for i := range streams {
		dropped += m.Deliver(1, MakeStream(KindBench, uint32(i)), [][]byte{frame})
	}
	if kept := streams - dropped; kept != backlogBytes/cost || m.backlog != kept*cost {
		t.Fatalf("%d frames of %d bytes kept (%d charged), want %d within %d bytes", kept, len(frame), m.backlog, backlogBytes/cost, backlogBytes)
	}
	m.Handle(MakeStream(KindBench, 0), func(ids.NodeID, []byte) {})
	if d := m.Deliver(1, MakeStream(KindBench, streams), [][]byte{frame}); d != 0 {
		t.Fatal("backlog still full after a registration took its frames")
	}
}

// TestMuxReplayBySender: a replayed backlog reaches a batch handler as one
// call per run of consecutive frames from one sender, whatever runs
// they arrived in.
func TestMuxReplayBySender(t *testing.T) {
	var m Mux
	m.Deliver(1, testStream, [][]byte{seqFrame(0)})
	m.Deliver(1, testStream, [][]byte{seqFrame(1), seqFrame(2)})
	m.Deliver(2, testStream, [][]byte{seqFrame(3)})
	m.Deliver(1, testStream, [][]byte{seqFrame(4)})
	m.Deliver(3, testStream, [][]byte{seqFrame(5), seqFrame(6)})
	m.Deliver(3, testStream, [][]byte{seqFrame(7)})
	m.Deliver(1, testStream+1, [][]byte{seqFrame(8)}) // another stream's backlog

	var calls []call
	m.HandleBatch(testStream, recordCalls(&calls))
	want := []call{{1, []int{0, 1, 2}}, {2, []int{3}}, {1, []int{4}}, {3, []int{5, 6, 7}}}
	if !slices.EqualFunc(calls, want, func(a, b call) bool { return a.from == b.from && slices.Equal(a.seqs, b.seqs) }) {
		t.Fatalf("replay calls = %v, want %v", calls, want)
	}
}

// TestMuxLaterHandleReplaces: a later Handle replaces an earlier
// HandleBatch on the stream and takes the run one frame at a time.
func TestMuxLaterHandleReplaces(t *testing.T) {
	var m Mux
	var batches []call
	m.HandleBatch(testStream, recordCalls(&batches))
	var frames []int
	m.Handle(testStream, func(_ ids.NodeID, p []byte) { frames = append(frames, seqOf(p)) })
	m.Deliver(1, testStream, [][]byte{seqFrame(0), seqFrame(1)})
	if len(batches) != 0 || !slices.Equal(frames, []int{0, 1}) {
		t.Fatalf("batch handler saw %v, frame handler saw %v", batches, frames)
	}
}

// TestMuxDeliverWaitsForReplay: a frame that arrives while registration
// replays the backlog waits until the replay is done, so it neither
// overtakes the buffered frames nor runs beside them.
func TestMuxDeliverWaitsForReplay(t *testing.T) {
	var m Mux
	m.Deliver(1, testStream, [][]byte{seqFrame(0), seqFrame(1)})

	entered, release := make(chan struct{}), make(chan struct{})
	seen := make(chan int, 3)
	registered := make(chan struct{})
	go func() {
		m.Handle(testStream, func(_ ids.NodeID, p []byte) {
			if seqOf(p) == 0 {
				close(entered)
				<-release
			}
			seen <- seqOf(p)
		})
		close(registered)
	}()
	<-entered
	delivered := make(chan struct{})
	go func() {
		m.Deliver(1, testStream, [][]byte{seqFrame(2)})
		close(delivered)
	}()
	select {
	case <-delivered:
		t.Fatal("Deliver returned while the backlog was being replayed")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-registered
	<-delivered
	close(seen)
	var got []int
	for s := range seen {
		got = append(got, s)
	}
	if !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("handler saw %v, want [0 1 2]", got)
	}
}
