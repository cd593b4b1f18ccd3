// Package wire implements the deterministic binary encoding used for
// every message in the system. Protocol messages are signed and MAC'd
// over their encoded bytes, so the encoding must be canonical: the same
// message always serializes to the same bytes, independent of map
// iteration order or platform.
//
// The codec is deliberately simple: unsigned values use a little-endian
// unsigned varint, signed values use zigzag, byte slices and strings are
// length-prefixed. Messages implement Marshaler/Unmarshaler and are
// framed with a one-byte type tag when sent through a typed registry
// (see registry.go).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"spider/internal/ids"
)

// Marshaler is implemented by every wire message.
type Marshaler interface {
	MarshalWire(w *Writer)
}

// Unmarshaler is implemented by every wire message.
type Unmarshaler interface {
	UnmarshalWire(r *Reader)
}

// Message combines both directions; protocol messages implement it.
type Message interface {
	Marshaler
	Unmarshaler
}

// Buffer-ownership rules. Encoding offers three tiers:
//
//   - Encode returns a fresh, exactly-sized slice the caller owns
//     outright — use it when the bytes are retained (stored in a log,
//     handed to a transport queue).
//   - AppendEncode appends to a caller-provided slice and returns it;
//     the caller owns dst before and after. With sufficient capacity
//     the call performs no allocation.
//   - GetWriter/PutWriter lend a pooled Writer for transient frames:
//     the bytes are valid only until PutWriter, so anything that
//     outlives the call must be copied (or encoded via Encode).
//
// Internally every tier runs through the writer pool, so even Encode
// performs exactly one allocation (the returned slice) instead of a
// growth chain.

// writerPool recycles Writers across encode calls. Buffers above
// maxPooledBuf are dropped on return so one huge message cannot pin
// memory in the pool forever.
var writerPool = sync.Pool{New: func() any { return new(Writer) }}

const maxPooledBuf = 1 << 20 // 1 MiB

// GetWriter borrows an empty Writer from the pool. Pair with
// PutWriter; the Writer's bytes are invalid after return.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// PutWriter returns a Writer to the pool.
func PutWriter(w *Writer) {
	if cap(w.buf) > maxPooledBuf {
		w.buf = nil
	}
	writerPool.Put(w)
}

// Encode serializes m into a fresh, exactly-sized byte slice the
// caller owns.
func Encode(m Marshaler) []byte {
	w := GetWriter()
	m.MarshalWire(w)
	out := append([]byte(nil), w.buf...)
	PutWriter(w)
	return out
}

// AppendEncode serializes m, appending to dst, and returns the
// extended slice. The caller owns dst throughout; with sufficient
// capacity no allocation occurs. The borrowed writer's own buffer is
// saved across the call and restored before the writer returns to the
// pool, so lending it out for dst never strips a pooled writer of its
// accumulated capacity.
func AppendEncode(dst []byte, m Marshaler) []byte {
	w := writerPool.Get().(*Writer)
	saved := w.buf
	w.buf = dst
	m.MarshalWire(w)
	out := w.buf
	w.buf = saved[:0]
	writerPool.Put(w)
	return out
}

// readerPool recycles Readers across Decode calls; a Reader escapes to
// the heap through the Unmarshaler interface call, so without the pool
// every decoded frame would allocate one.
var readerPool = sync.Pool{New: func() any { return new(Reader) }}

// Decode parses buf into m, failing if bytes remain or the buffer is
// short.
func Decode(buf []byte, m Unmarshaler) error {
	r := readerPool.Get().(*Reader)
	*r = Reader{buf: buf}
	m.UnmarshalWire(r)
	err := r.Close()
	r.buf = nil
	readerPool.Put(r)
	return err
}

// Writer accumulates an encoded message. The zero value is ready to
// use. Writes cannot fail; the buffer grows as needed.
type Writer struct {
	buf []byte
	tmp [binary.MaxVarintLen64]byte
}

// Bytes returns the encoded bytes. The returned slice aliases the
// writer's buffer; callers must not keep writing afterwards if they
// retain the slice.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset discards the accumulated bytes, retaining capacity.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// WriteUvarint appends an unsigned varint.
func (w *Writer) WriteUvarint(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf = append(w.buf, w.tmp[:n]...)
}

// WriteVarint appends a zigzag-encoded signed varint.
func (w *Writer) WriteVarint(v int64) {
	n := binary.PutVarint(w.tmp[:], v)
	w.buf = append(w.buf, w.tmp[:n]...)
}

// WriteUint64 appends v as an unsigned varint.
func (w *Writer) WriteUint64(v uint64) { w.WriteUvarint(v) }

// WriteInt appends v as a signed varint.
func (w *Writer) WriteInt(v int) { w.WriteVarint(int64(v)) }

// WriteBool appends a single 0/1 byte.
func (w *Writer) WriteBool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// WriteU8 appends a raw byte.
func (w *Writer) WriteU8(b byte) { w.buf = append(w.buf, b) }

// WriteBytes appends a length-prefixed byte slice. A nil slice encodes
// identically to an empty one.
func (w *Writer) WriteBytes(b []byte) {
	w.WriteUvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// WriteRaw appends bytes without a length prefix. Use only for
// fixed-size trailers where the reader knows the length.
func (w *Writer) WriteRaw(b []byte) { w.buf = append(w.buf, b...) }

// WriteBytesList appends a count-prefixed list of byte slices, each
// itself length-prefixed. Used for MAC vectors and other per-member
// authenticator material.
func (w *Writer) WriteBytesList(bs [][]byte) {
	w.WriteInt(len(bs))
	for _, b := range bs {
		w.WriteBytes(b)
	}
}

// WriteString appends a length-prefixed string.
func (w *Writer) WriteString(s string) {
	w.WriteUvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// WriteFloat64 appends an IEEE-754 encoding of v.
func (w *Writer) WriteFloat64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	w.buf = append(w.buf, b[:]...)
}

// WriteNode appends a node identifier.
func (w *Writer) WriteNode(id ids.NodeID) { w.WriteVarint(int64(id)) }

// WriteGroup appends a group identifier.
func (w *Writer) WriteGroup(id ids.GroupID) { w.WriteVarint(int64(id)) }

// WriteClient appends a client identifier.
func (w *Writer) WriteClient(id ids.ClientID) { w.WriteVarint(int64(id)) }

// WriteSeq appends a sequence number.
func (w *Writer) WriteSeq(s ids.SeqNr) { w.WriteUvarint(uint64(s)) }

// WritePos appends a subchannel position.
func (w *Writer) WritePos(p ids.Position) { w.WriteUvarint(uint64(p)) }

// WriteSubchannel appends a subchannel identifier.
func (w *Writer) WriteSubchannel(sc ids.Subchannel) { w.WriteVarint(int64(sc)) }

// WriteMessage appends a length-prefixed nested message.
func (w *Writer) WriteMessage(m Marshaler) {
	inner := GetWriter()
	m.MarshalWire(inner)
	w.WriteBytes(inner.Bytes())
	PutWriter(inner)
}

// ErrCorrupt is reported by Reader.Close when decoding failed or bytes
// remained unconsumed.
var ErrCorrupt = errors.New("wire: corrupt message")

// Reader decodes a message. Errors are sticky: after the first failure
// every subsequent read returns zero values, and Close reports the
// failure. This keeps message decoding code free of per-field error
// handling while still rejecting malformed input.
type Reader struct {
	buf    []byte
	off    int
	err    error
	shared bool
}

// NewReader returns a reader over buf. The reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// NewSharedReader returns a zero-copy reader: byte-slice reads return
// subslices of buf instead of copies. The caller asserts that buf is
// immutable for as long as any decoded slice is in use — the contract
// delivered transport frames already satisfy — and accepts that a
// retained slice pins buf (and, for arena-backed frames, its whole
// chunk) in memory; copy before long-lived retention.
func NewSharedReader(buf []byte) *Reader { return &Reader{buf: buf, shared: true} }

// DecodeShared parses buf into m like Decode, but with a shared
// (zero-copy) reader: see NewSharedReader for the aliasing contract.
func DecodeShared(buf []byte, m Unmarshaler) error {
	r := readerPool.Get().(*Reader)
	*r = Reader{buf: buf, shared: true}
	m.UnmarshalWire(r)
	err := r.Close()
	r.buf = nil
	readerPool.Put(r)
	return err
}

// Err returns the sticky decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Close verifies the message was consumed exactly.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, what, r.off)
	}
}

// Poison marks the reader as failed with the given reason: subsequent
// reads return zero values and Close reports the failure. Decoders call
// it to reject structurally invalid claims — oversized counts, unknown
// frame kinds — since UnmarshalWire has no error return of its own.
func (r *Reader) Poison(reason string) { r.fail(reason) }

// ReadUvarint consumes an unsigned varint.
func (r *Reader) ReadUvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// ReadVarint consumes a zigzag-encoded signed varint.
func (r *Reader) ReadVarint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

// ReadUint64 consumes an unsigned varint.
func (r *Reader) ReadUint64() uint64 { return r.ReadUvarint() }

// ReadInt consumes a signed varint and narrows it to int.
func (r *Reader) ReadInt() int {
	v := r.ReadVarint()
	if v > math.MaxInt32 || v < math.MinInt32 {
		r.fail("int overflow")
		return 0
	}
	return int(v)
}

// ReadBool consumes a single 0/1 byte.
func (r *Reader) ReadBool() bool {
	b := r.ReadU8()
	switch b {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("bad bool")
		return false
	}
}

// ReadU8 consumes a raw byte.
func (r *Reader) ReadU8() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("short buffer")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// maxSliceLen bounds length prefixes so a corrupt message cannot force
// a huge allocation before validation fails.
const maxSliceLen = 1 << 26 // 64 MiB

// ReadBytes consumes a length-prefixed byte slice. The result is a
// copy safe to retain — unless the reader is shared, in which case it
// aliases the input buffer.
func (r *Reader) ReadBytes() []byte {
	n := r.ReadUvarint()
	if r.err != nil {
		return nil
	}
	if n > maxSliceLen || n > uint64(len(r.buf)-r.off) {
		r.fail("bad slice length")
		return nil
	}
	if r.shared {
		out := r.buf[r.off : r.off+int(n) : r.off+int(n)]
		r.off += int(n)
		return out
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:r.off+int(n)])
	r.off += int(n)
	return out
}

// ReadRaw consumes exactly n raw bytes (no prefix). The result is a
// copy (an alias for shared readers, like ReadBytes).
func (r *Reader) ReadRaw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.fail("short raw read")
		return nil
	}
	if r.shared {
		out := r.buf[r.off : r.off+n : r.off+n]
		r.off += n
		return out
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:r.off+n])
	r.off += n
	return out
}

// maxListLen bounds count prefixes of byte-slice lists; no protocol
// message carries more entries than this.
const maxListLen = 1 << 16

// ReadBytesList consumes a list written by WriteBytesList. An empty
// list decodes as nil. On the well-formed path every entry shares one
// exactly-sized backing allocation (a MAC vector decodes in two
// allocations instead of one per member); a malformed list falls back
// to per-entry reads so the precise error is reported.
func (r *Reader) ReadBytesList() [][]byte {
	n := r.ReadInt()
	if r.err != nil {
		return nil
	}
	if n < 0 || n > maxListLen {
		r.fail("bad list length")
		return nil
	}
	if n == 0 {
		return nil
	}
	// Prescan the entry lengths from the current offset so the copies
	// below can share a single backing array.
	total, off, wellFormed := 0, r.off, true
	for i := 0; i < n; i++ {
		ln, sz := binary.Uvarint(r.buf[off:])
		if sz <= 0 || ln > maxSliceLen || ln > uint64(len(r.buf)-off-sz) {
			wellFormed = false
			break
		}
		off += sz + int(ln)
		total += int(ln)
	}
	out := make([][]byte, n)
	if !wellFormed {
		for i := range out {
			out[i] = r.ReadBytes()
		}
		return out
	}
	if r.shared {
		for i := range out {
			ln := int(r.ReadUvarint())
			out[i] = r.buf[r.off : r.off+ln : r.off+ln]
			r.off += ln
		}
		return out
	}
	backing := make([]byte, 0, total)
	for i := range out {
		ln := int(r.ReadUvarint())
		start := len(backing)
		backing = append(backing, r.buf[r.off:r.off+ln]...)
		r.off += ln
		out[i] = backing[start : start+ln : start+ln]
	}
	return out
}

// ReadString consumes a length-prefixed string.
func (r *Reader) ReadString() string { return string(r.ReadBytes()) }

// ReadFloat64 consumes an IEEE-754 float64.
func (r *Reader) ReadFloat64() float64 {
	b := r.ReadRaw(8)
	if r.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// ReadNode consumes a node identifier.
func (r *Reader) ReadNode() ids.NodeID { return ids.NodeID(r.ReadVarint()) }

// ReadGroup consumes a group identifier.
func (r *Reader) ReadGroup() ids.GroupID { return ids.GroupID(r.ReadVarint()) }

// ReadClient consumes a client identifier.
func (r *Reader) ReadClient() ids.ClientID { return ids.ClientID(r.ReadVarint()) }

// ReadSeq consumes a sequence number.
func (r *Reader) ReadSeq() ids.SeqNr { return ids.SeqNr(r.ReadUvarint()) }

// ReadPos consumes a subchannel position.
func (r *Reader) ReadPos() ids.Position { return ids.Position(r.ReadUvarint()) }

// ReadSubchannel consumes a subchannel identifier.
func (r *Reader) ReadSubchannel() ids.Subchannel { return ids.Subchannel(r.ReadVarint()) }

// ReadMessage consumes a length-prefixed nested message into m,
// propagating the reader's sharing mode.
func (r *Reader) ReadMessage(m Unmarshaler) {
	b := r.ReadBytes()
	if r.err != nil {
		return
	}
	var err error
	if r.shared {
		err = DecodeShared(b, m)
	} else {
		err = Decode(b, m)
	}
	if err != nil {
		r.fail("nested message: " + err.Error())
	}
}
