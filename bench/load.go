package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"spider/internal/app"
)

// clock is the time source of the load loops; tests drive the
// scheduled loop on a fake one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }
func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// kvClient is the part of core.Client the load loop drives.
type kvClient interface {
	Write(op []byte) ([]byte, error)
	StrongRead(op []byte) ([]byte, error)
	WeakRead(op []byte) ([]byte, error)
}

// opSample is one issued operation. Latency counts from due: in a
// closed loop due is the issue time, in a scheduled loop the slot the
// op was planned for, so queueing behind a stalled predecessor counts.
type opSample struct {
	kind   byte // 'w', 's', 'r'
	due    time.Time
	start  time.Time
	end    time.Time
	free   bool // the client was idle at the due time (scheduled loops)
	traced bool
	failed bool
}

func (s opSample) latency() time.Duration { return s.end.Sub(s.due) }

// value is what client c's seq-th write stores: (client, seq) up front
// so a read identifies which write it observed, then bytes derived from
// (seed, client, seq) so the whole value can be checked.
func value(seed int64, client int, seq uint64) []byte {
	v := make([]byte, valueSize)
	binary.BigEndian.PutUint32(v[0:4], uint32(client))
	binary.BigEndian.PutUint64(v[4:12], seq)
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(client)<<40 ^ seq
	for i := 12; i+8 <= valueSize; i += 8 {
		// splitmix64
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		binary.LittleEndian.PutUint64(v[i:], z^z>>31)
	}
	return v
}

// loadClient is one sequential client: its key, the last write the
// system acknowledged, and everything it issued.
type loadClient struct {
	idx    int
	seed   int64
	key    string
	kv     kvClient
	cycle  string
	offset int // seed-chosen starting point in the cycle

	// tr, when set, records a span around every op of every other pass
	// through the cycle; the untraced passes of the same window are the
	// baseline trace.overhead_frac compares against.
	tr *tracer

	acked      uint64 // seq of the latest acknowledged write
	samples    []opSample
	violations []string
}

func (c *loadClient) kindAt(i int) byte { return c.cycle[(c.offset+i)%len(c.cycle)] }

func (c *loadClient) write() error {
	seq := c.acked + 1
	raw, err := c.kv.Write(app.EncodeOp(app.Op{Kind: app.OpPut, Key: c.key, Value: value(c.seed, c.idx, seq)}))
	if err != nil {
		return err
	}
	res, err := app.DecodeResult(raw)
	if err != nil {
		return err
	}
	if !res.OK {
		c.violate("write %d of client %d not applied", seq, c.idx)
	}
	c.acked = seq
	return nil
}

// read issues a strong or weak read and checks what came back: a
// strong read must return the latest acknowledged value, a weak read
// any value this client wrote up to that one.
func (c *loadClient) read(strong bool) error {
	op := app.EncodeOp(app.Op{Kind: app.OpGet, Key: c.key})
	var (
		raw []byte
		err error
	)
	if strong {
		raw, err = c.kv.StrongRead(op)
	} else {
		raw, err = c.kv.WeakRead(op)
	}
	if err != nil {
		return err
	}
	c.checkRead(raw, strong)
	return nil
}

func (c *loadClient) checkRead(raw []byte, strong bool) {
	what := "weak"
	if strong {
		what = "strong"
	}
	res, err := app.DecodeResult(raw)
	if err != nil || !res.OK || !res.Found || len(res.Value) != valueSize {
		c.violate("%s read of client %d after write %d: no value (err=%v)", what, c.idx, c.acked, err)
		return
	}
	client := int(binary.BigEndian.Uint32(res.Value[0:4]))
	seq := binary.BigEndian.Uint64(res.Value[4:12])
	switch {
	case client != c.idx:
		c.violate("%s read of client %d returned a value of client %d", what, c.idx, client)
	case strong && seq != c.acked:
		c.violate("strong read of client %d returned write %d, latest acknowledged is %d", c.idx, seq, c.acked)
	case seq < 1 || seq > c.acked:
		c.violate("weak read of client %d returned write %d, acknowledged are 1..%d", c.idx, seq, c.acked)
	case !bytes.Equal(res.Value, value(c.seed, c.idx, seq)):
		c.violate("%s read of client %d returned corrupted bytes for write %d", what, c.idx, seq)
	}
}

func (c *loadClient) violate(format string, args ...any) {
	if len(c.violations) < 20 {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

func (c *loadClient) do(kind byte) error {
	switch kind {
	case 'w':
		return c.write()
	case 's':
		return c.read(true)
	default:
		return c.read(false)
	}
}

// run issues the client's op sequence from start until end and records
// every op. With interval == 0 the loop is closed: the next op is
// issued, and due, the moment the previous one completed. Otherwise op
// k is due at start + k*interval whether or not the client is free by
// then; a busy client issues it as soon as it can and the wait counts
// as latency. Ops due at or after end are not issued.
func (c *loadClient) run(clk clock, start, end time.Time, interval time.Duration) {
	prevEnd := start
	for k := 0; ; k++ {
		now := clk.Now()
		due := now
		if interval > 0 {
			due = start.Add(time.Duration(k) * interval)
		}
		if !due.Before(end) {
			return
		}
		free := !prevEnd.After(due)
		if now.Before(due) {
			clk.SleepUntil(due)
			now = clk.Now()
		}
		s := opSample{
			kind:   c.kindAt(k),
			due:    due,
			start:  now,
			free:   free,
			traced: c.tr != nil && (k/len(c.cycle))%2 == 0,
		}
		s.failed = c.do(s.kind) != nil
		s.end = clk.Now()
		prevEnd = s.end
		c.samples = append(c.samples, s)
		if s.traced {
			c.tr.add(span{
				Name:    "op",
				Parent:  fmt.Sprintf("client-%d", c.idx),
				Op:      fmt.Sprintf("c%d-%d", c.idx, k),
				Kind:    string(s.kind),
				StartNS: c.tr.ns(s.start),
				EndNS:   c.tr.ns(s.end),
				DueNS:   c.tr.ns(s.due),
			})
		}
	}
}
