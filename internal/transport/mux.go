package transport

import (
	"sync"

	"spider/internal/ids"
)

// The backlog of frames that arrive before their handler is bounded:
// backlogLimit frames per stream, and backlogBytes per node over all
// streams, each frame charged its length plus frameCost for its
// bookkeeping (so that empty frames on ever new streams are bounded
// too). Frames beyond either bound are dropped and counted, and frames
// on a stream of no declared kind are dropped without being buffered.
const (
	backlogLimit = 4096
	backlogBytes = 16 << 20
	frameCost    = 128
)

// Mux is the inbound half of a transport: the stream handlers and the
// bounded backlog of frames that arrive before their handler. A
// transport embeds it and hands every received run of frames to
// Deliver, on that sender's delivery goroutine. The zero value is ready
// to use.
type Mux struct {
	mu      sync.Mutex
	streams map[Stream]*muxStream
	backlog int // bytes charged for every stream's backlog
}

type muxStream struct {
	h BatchHandler
	// The backlog before h registers, oldest first.
	froms    []ids.NodeID
	payloads [][]byte
	// replay is non-nil while a registration replays the backlog and
	// is closed when it is done; Deliver waits for it, so a sender's
	// newer frames never overtake its buffered ones.
	replay chan struct{}
}

// stream returns the entry for s, creating it; the caller holds mu.
func (m *Mux) stream(s Stream) *muxStream {
	if m.streams == nil {
		m.streams = make(map[Stream]*muxStream)
	}
	st := m.streams[s]
	if st == nil {
		st = &muxStream{}
		m.streams[s] = st
	}
	return st
}

// HandleBatch registers h for stream, replacing any earlier handler,
// and replays the frames buffered until now on the calling goroutine,
// one call per run of consecutive frames from one sender. Frames for
// the stream that arrive meanwhile wait until the replay is done.
func (m *Mux) HandleBatch(stream Stream, h BatchHandler) {
	m.mu.Lock()
	st := m.stream(stream)
	st.h = h
	froms, payloads := st.froms, st.payloads
	st.froms, st.payloads = nil, nil
	for _, p := range payloads {
		m.backlog -= len(p) + frameCost
	}
	if len(froms) == 0 {
		m.mu.Unlock()
		return
	}
	done := make(chan struct{})
	st.replay = done
	m.mu.Unlock()

	for i := 0; i < len(froms); {
		j := i + 1
		for j < len(froms) && froms[j] == froms[i] {
			j++
		}
		h(froms[i], payloads[i:j:j])
		i = j
	}

	m.mu.Lock()
	st.replay = nil
	m.mu.Unlock()
	close(done)
}

// Handle registers h for stream as a batch handler that takes the
// run's frames one at a time.
func (m *Mux) Handle(stream Stream, h Handler) {
	m.HandleBatch(stream, func(from ids.NodeID, payloads [][]byte) {
		for _, p := range payloads {
			h(from, p)
		}
	})
}

// Deliver hands a run of frames from one sender to the stream's
// handler, or buffers them until one registers. It returns how many
// frames it dropped: past the backlog's bounds, or on a stream of no
// declared kind.
func (m *Mux) Deliver(from ids.NodeID, stream Stream, payloads [][]byte) (dropped int) {
	m.mu.Lock()
	st := m.streams[stream]
	for st != nil && st.replay != nil {
		done := st.replay
		m.mu.Unlock()
		<-done
		m.mu.Lock()
	}
	if st != nil && st.h != nil {
		h := st.h
		m.mu.Unlock()
		h(from, payloads)
		return 0
	}
	defer m.mu.Unlock()
	if !StreamKind(stream >> 24).declared() {
		return len(payloads)
	}
	for _, p := range payloads {
		cost := len(p) + frameCost
		if st != nil && len(st.froms) == backlogLimit || m.backlog+cost > backlogBytes {
			dropped++
			continue
		}
		if st == nil {
			st = m.stream(stream)
		}
		st.froms = append(st.froms, from)
		st.payloads = append(st.payloads, p)
		m.backlog += cost
	}
	return dropped
}
