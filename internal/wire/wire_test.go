package wire

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"spider/internal/ids"
)

func TestScalarRoundTrip(t *testing.T) {
	var w Writer
	w.WriteUvarint(0)
	w.WriteUvarint(math.MaxUint64)
	w.WriteVarint(-1)
	w.WriteVarint(math.MinInt64)
	w.WriteBool(true)
	w.WriteBool(false)
	w.WriteU8(0xAB)
	w.WriteBytes([]byte("hello"))
	w.WriteBytes(nil)
	w.WriteString("wörld")
	w.WriteFloat64(-3.5)
	w.WriteNode(7)
	w.WriteGroup(3)
	w.WriteClient(99)
	w.WriteSeq(123456)
	w.WritePos(42)
	w.WriteSubchannel(-5)

	r := NewReader(w.Bytes())
	if got := r.ReadUvarint(); got != 0 {
		t.Errorf("uvarint = %d, want 0", got)
	}
	if got := r.ReadUvarint(); got != math.MaxUint64 {
		t.Errorf("uvarint = %d, want max", got)
	}
	if got := r.ReadVarint(); got != -1 {
		t.Errorf("varint = %d, want -1", got)
	}
	if got := r.ReadVarint(); got != math.MinInt64 {
		t.Errorf("varint = %d, want min", got)
	}
	if !r.ReadBool() || r.ReadBool() {
		t.Error("bool round trip failed")
	}
	if got := r.ReadU8(); got != 0xAB {
		t.Errorf("byte = %x, want ab", got)
	}
	if got := r.ReadBytes(); !bytes.Equal(got, []byte("hello")) {
		t.Errorf("bytes = %q", got)
	}
	if got := r.ReadBytes(); len(got) != 0 {
		t.Errorf("nil bytes decoded to %q", got)
	}
	if got := r.ReadString(); got != "wörld" {
		t.Errorf("string = %q", got)
	}
	if got := r.ReadFloat64(); got != -3.5 {
		t.Errorf("float = %v", got)
	}
	if got := r.ReadNode(); got != 7 {
		t.Errorf("node = %v", got)
	}
	if got := r.ReadGroup(); got != 3 {
		t.Errorf("group = %v", got)
	}
	if got := r.ReadClient(); got != 99 {
		t.Errorf("client = %v", got)
	}
	if got := r.ReadSeq(); got != 123456 {
		t.Errorf("seq = %v", got)
	}
	if got := r.ReadPos(); got != 42 {
		t.Errorf("pos = %v", got)
	}
	if got := r.ReadSubchannel(); got != -5 {
		t.Errorf("subchannel = %v", got)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestReaderTrailingBytes(t *testing.T) {
	var w Writer
	w.WriteUvarint(1)
	w.WriteUvarint(2)
	r := NewReader(w.Bytes())
	r.ReadUvarint()
	if err := r.Close(); err == nil {
		t.Fatal("Close accepted trailing bytes")
	}
}

func TestReaderShortBuffer(t *testing.T) {
	r := NewReader(nil)
	if got := r.ReadUvarint(); got != 0 {
		t.Errorf("short read returned %d", got)
	}
	if err := r.Close(); err == nil {
		t.Fatal("Close accepted short buffer")
	}
	// Errors are sticky: further reads keep returning zero values.
	if got := r.ReadBytes(); got != nil {
		t.Errorf("sticky error read returned %v", got)
	}
}

func TestReaderBadSliceLength(t *testing.T) {
	var w Writer
	w.WriteUvarint(1 << 40) // length prefix far beyond the buffer
	r := NewReader(w.Bytes())
	if got := r.ReadBytes(); got != nil {
		t.Errorf("oversized slice decoded to %d bytes", len(got))
	}
	if r.Err() == nil {
		t.Fatal("oversized length accepted")
	}
}

func TestReaderBadBool(t *testing.T) {
	r := NewReader([]byte{7})
	r.ReadBool()
	if r.Err() == nil {
		t.Fatal("bad bool accepted")
	}
}

// quickMsg exercises nested-message encoding in property tests.
type quickMsg struct {
	A uint64
	B int64
	S string
	P []byte
	N ids.NodeID
}

func (m *quickMsg) MarshalWire(w *Writer) {
	w.WriteUvarint(m.A)
	w.WriteVarint(m.B)
	w.WriteString(m.S)
	w.WriteBytes(m.P)
	w.WriteNode(m.N)
}

func (m *quickMsg) UnmarshalWire(r *Reader) {
	m.A = r.ReadUvarint()
	m.B = r.ReadVarint()
	m.S = r.ReadString()
	m.P = r.ReadBytes()
	m.N = r.ReadNode()
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(a uint64, b int64, s string, p []byte, n int32) bool {
		in := &quickMsg{A: a, B: b, S: s, P: p, N: ids.NodeID(n)}
		out := new(quickMsg)
		if err := Decode(Encode(in), out); err != nil {
			return false
		}
		if out.P == nil {
			out.P = []byte{}
		}
		if in.P == nil {
			in.P = []byte{}
		}
		return in.A == out.A && in.B == out.B && in.S == out.S &&
			bytes.Equal(in.P, out.P) && in.N == out.N
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEncodingDeterministic(t *testing.T) {
	f := func(a uint64, b int64, s string, p []byte) bool {
		m := &quickMsg{A: a, B: b, S: s, P: p, N: 1}
		return bytes.Equal(Encode(m), Encode(m))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNestedMessage(t *testing.T) {
	inner := &quickMsg{A: 9, S: "nested"}
	var w Writer
	w.WriteMessage(inner)
	w.WriteUvarint(77)
	r := NewReader(w.Bytes())
	out := new(quickMsg)
	r.ReadMessage(out)
	if out.A != 9 || out.S != "nested" {
		t.Errorf("nested decode = %+v", out)
	}
	if got := r.ReadUvarint(); got != 77 {
		t.Errorf("trailer = %d", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	reg.Register(1, "quick", func() Message { return new(quickMsg) })

	frame := reg.EncodeFrame(1, &quickMsg{A: 5, S: "x"})
	tag, msg, err := reg.DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if tag != 1 {
		t.Errorf("tag = %d", tag)
	}
	got, ok := msg.(*quickMsg)
	if !ok || got.A != 5 || got.S != "x" {
		t.Errorf("decoded = %#v", msg)
	}

	if _, _, err := reg.DecodeFrame([]byte{42, 0}); err == nil {
		t.Error("unknown tag accepted")
	}
	if _, _, err := reg.DecodeFrame(nil); err == nil {
		t.Error("empty frame accepted")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Register(1, "a", func() Message { return new(quickMsg) })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate tag did not panic")
		}
	}()
	reg.Register(1, "b", func() Message { return new(quickMsg) })
}
