package memnet

import (
	"encoding/binary"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"spider/internal/ids"
	"spider/internal/raceflag"
	"spider/internal/topo"
)

// zonePlacement puts node 1 and node 3 in two Virginia zones (0.6 ms
// apart one way) and node 2 in Tokyo (81 ms from both).
func zonePlacement() *topo.Placement {
	p := topo.NewPlacement(1.0)
	p.Place(1, topo.Site{Region: topo.Virginia, Zone: 0})
	p.Place(2, topo.Site{Region: topo.Tokyo})
	p.Place(3, topo.Site{Region: topo.Virginia, Zone: 1})
	return p
}

// TestDeliveryLateness: with the process idle between frames — the state
// a two-client deployment is in — a frame on a zone link arrives close
// to its scheduled time, and never before it. Runtime timers put the
// median lateness at about 530 µs here, since an idle runtime sleeps in
// whole milliseconds.
func TestDeliveryLateness(t *testing.T) {
	if runtime.GOOS != "linux" || raceflag.Enabled {
		t.Skip("the precise clock is Linux-only, and the race detector slows every wake-up")
	}
	p := zonePlacement()
	net := New(Options{Placement: p})
	defer net.Close()
	oneWay := p.OneWay(1, 3)
	arrived := make(chan time.Time, 1)
	net.Node(3).Handle(testStream, func(ids.NodeID, []byte) { arrived <- time.Now() })

	const frames, bound = 300, 200 * time.Microsecond
	// Other test binaries share the machine, and contention only adds
	// lateness: one quiet round in three is the evidence. When no round
	// is quiet, the quieter quarter of each still tells the two clocks
	// apart (runtime timers: about 520 µs there too), and the median is
	// left unjudged.
	quartile := time.Duration(0)
	for round := 0; round < 3; round++ {
		late := make([]time.Duration, frames)
		for i := range late {
			sent := time.Now()
			net.Node(1).Send(3, testStream, nil)
			// Scheduled no earlier than sent+oneWay; measuring from sent
			// overstates lateness by the enqueue cost only.
			late[i] = (<-arrived).Sub(sent) - oneWay
			if late[i] < 0 {
				t.Fatalf("frame %d arrived %v before its scheduled time", i, -late[i])
			}
			time.Sleep(200 * time.Microsecond) // let the process go idle
		}
		slices.Sort(late)
		t.Logf("round %d: lateness min %v, quartile %v, median %v, p90 %v",
			round, late[0], late[frames/4], late[frames/2], late[frames*9/10])
		if late[frames/2] <= bound {
			return
		}
		quartile = max(quartile, late[frames/4])
	}
	if quartile > bound {
		t.Fatalf("lower-quartile lateness %v on a %v link in the worst of three rounds, want median <= %v", quartile, oneWay, bound)
	}
	t.Skipf("machine too busy to judge the median: no round in three had it <= %v", bound)
}

// TestEarlierDeadlinePreempts: the clock is armed for the one earliest
// deadline; a frame enqueued later but due sooner, on another link, must
// move it rather than wait for the 81 ms frame it was armed for.
func TestEarlierDeadlinePreempts(t *testing.T) {
	p := zonePlacement()
	net := New(Options{Placement: p})
	defer net.Close()
	took := make(chan time.Duration, 2)
	var start time.Time
	h := func(ids.NodeID, []byte) { took <- time.Since(start) }
	net.Node(2).Handle(testStream, h)
	net.Node(3).Handle(testStream, h)

	start = time.Now()
	net.Node(1).Send(2, testStream, nil) // due in 81 ms
	time.Sleep(2 * time.Millisecond)     // its link is parked on the clock
	sent := time.Since(start)
	net.Node(1).Send(3, testStream, nil) // due in 0.6 ms

	near, far := <-took, <-took
	if d := near - sent; d < p.OneWay(1, 3) || d > 20*time.Millisecond {
		t.Errorf("zone frame took %v behind a pending WAN frame, want ~%v", d, p.OneWay(1, 3))
	}
	if far < p.OneWay(1, 2) || far > 200*time.Millisecond {
		t.Errorf("WAN frame took %v, want ~%v", far, p.OneWay(1, 2))
	}
}

// TestConcurrentLinksShareClock drives the clock's heap from many
// sending goroutines at once (run under -race): every frame arrives, in
// link order, not before its delay.
func TestConcurrentLinksShareClock(t *testing.T) {
	const senders, receivers, perLink = 6, 4, 100
	p := topo.NewPlacement(0.2) // zone links of 120 µs: deadlines interleave tightly
	for id := ids.NodeID(1); id <= senders+receivers; id++ {
		p.Place(id, topo.Site{Region: topo.Virginia, Zone: int(id)})
	}
	net := New(Options{Placement: p, JitterFrac: 0.5, Seed: 3})
	defer net.Close()
	oneWay := p.OneWay(1, senders+1)
	epoch := time.Now()

	var mu sync.Mutex
	next := make(map[linkKey]uint32)
	var done sync.WaitGroup
	done.Add(senders * receivers * perLink)
	for r := 1; r <= receivers; r++ {
		to := ids.NodeID(senders + r)
		net.Node(to).Handle(testStream, func(from ids.NodeID, payload []byte) {
			defer done.Done()
			seq := binary.BigEndian.Uint32(payload)
			sent := time.Duration(binary.BigEndian.Uint64(payload[4:]))
			mu.Lock()
			defer mu.Unlock()
			key := linkKey{from, to}
			if seq != next[key] {
				t.Errorf("link %v->%v delivered frame %d at position %d", from, to, seq, next[key])
			}
			next[key] = seq + 1
			if d := time.Since(epoch) - sent; d < oneWay {
				t.Errorf("link %v->%v frame %d arrived after %v, before its %v delay", from, to, seq, d, oneWay)
			}
		})
	}
	for s := 1; s <= senders; s++ {
		node := net.Node(ids.NodeID(s))
		go func() {
			for i := 0; i < perLink; i++ {
				for r := 1; r <= receivers; r++ {
					payload := binary.BigEndian.AppendUint32(nil, uint32(i))
					payload = binary.BigEndian.AppendUint64(payload, uint64(time.Since(epoch)))
					node.Send(ids.NodeID(senders+r), testStream, payload)
				}
			}
		}()
	}
	done.Wait()
}

// TestRuntimeTimerFallbackDelivers: where the kernel refuses a timerfd
// the clock runs on the runtime timer instead of panicking. A network
// built on it delivers every frame, in link order and never before its
// delay, on zone and WAN links alike.
func TestRuntimeTimerFallbackDelivers(t *testing.T) {
	p := zonePlacement()
	net := newNetwork(Options{Placement: p}, newRuntimeTimer())
	defer net.Close()
	const perLink = 50
	var done sync.WaitGroup
	done.Add(2 * perLink)
	epoch := time.Now()
	for _, to := range []ids.NodeID{2, 3} {
		oneWay, next := p.OneWay(1, to), uint32(0)
		net.Node(to).Handle(testStream, func(_ ids.NodeID, payload []byte) {
			defer done.Done()
			seq := binary.BigEndian.Uint32(payload)
			sent := time.Duration(binary.BigEndian.Uint64(payload[4:]))
			if seq != next {
				t.Errorf("link to %v delivered frame %d at position %d", to, seq, next)
			}
			next = seq + 1
			if d := time.Since(epoch) - sent; d < oneWay {
				t.Errorf("link to %v frame %d arrived after %v, before its %v delay", to, seq, d, oneWay)
			}
		})
	}
	for i := 0; i < perLink; i++ {
		for _, to := range []ids.NodeID{2, 3} {
			payload := binary.BigEndian.AppendUint32(nil, uint32(i))
			payload = binary.BigEndian.AppendUint64(payload, uint64(time.Since(epoch)))
			net.Node(1).Send(to, testStream, payload)
		}
		time.Sleep(100 * time.Microsecond)
	}
	done.Wait()
}

// openFDs counts this process's open descriptors (Linux only).
func openFDs(t *testing.T) int {
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// TestCloseReleasesClock: a network's clock goroutine and its timer
// descriptor end with Close, also while links are parked on the clock.
func TestCloseReleasesClock(t *testing.T) {
	p := zonePlacement()
	linux := runtime.GOOS == "linux"
	goroutines, fds := runtime.NumGoroutine(), 0
	if linux {
		fds = openFDs(t)
	}
	for i := 0; i < 200; i++ {
		net := New(Options{Placement: p})
		net.Node(2).Handle(testStream, func(ids.NodeID, []byte) {
			t.Error("frame delivered after Close")
		})
		net.Node(1).Send(2, testStream, nil) // still 81 ms away at Close
		net.Close()
	}
	// Close waits for every goroutine's last statement, not its exit.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("%d goroutines after 200 New/Close cycles, %d before", got, goroutines)
	}
	if linux {
		if got := openFDs(t); got != fds {
			t.Errorf("%d open descriptors after 200 New/Close cycles, %d before", got, fds)
		}
	}
}
