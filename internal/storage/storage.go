// Package storage implements the write-behind persistent store of the
// durability layer: a replica asynchronously persists its stable
// checkpoints (atomic snapshot file, written to a temp file and
// renamed into place) and the post-checkpoint log suffix (append-only
// segment file), with fsyncs batched on a dedicated writer goroutine
// so nothing on the replica's hot path ever waits for the disk.
//
// A restarted replica calls Load to rehydrate: the image carries the
// newest valid checkpoint, the validated log suffix behind it, and a
// small atomically-replaced metadata blob (consensus view hints).
// Every record is digest-protected, so torn writes, truncated tails
// and bit flips surface as a shorter — never a wrong — image; callers
// fall back to the protocol's checkpoint Fetch for anything the disk
// cannot prove.
package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Store is the persistence interface replicas write through. All
// mutating calls are asynchronous (write-behind): they enqueue onto
// the writer goroutine and return immediately. Payload and state
// slices are retained until written and must not be modified by the
// caller after the call.
type Store interface {
	// Load validates and returns the on-disk image. Call it before the
	// first mutating call (it reads the files directly). A missing
	// image returns (nil, nil); a corrupt checkpoint returns an error
	// and the caller starts cold.
	Load() (*Image, error)
	// SaveCheckpoint atomically replaces the checkpoint snapshot and
	// truncates the log segment it covers.
	SaveCheckpoint(seq uint64, state []byte)
	// Append adds one log record behind the latest checkpoint.
	Append(pos uint64, payload []byte)
	// SaveMeta atomically replaces the metadata blob.
	SaveMeta(data []byte)
	// Sync blocks until every previously enqueued write reached disk.
	Sync() error
	// Close drains pending writes, syncs, and releases the files.
	Close() error
}

// Entry is one validated log record of the post-checkpoint suffix.
type Entry struct {
	Pos     uint64
	Payload []byte
}

// Image is a validated on-disk replica state.
type Image struct {
	// Seq is the checkpoint sequence number (0 = no checkpoint; the
	// suffix then replays from genesis).
	Seq   uint64
	State []byte
	// Meta is the metadata blob (nil when absent or corrupt).
	Meta []byte
	// Suffix holds the valid log records behind the checkpoint in
	// strictly increasing position order. A corrupt or out-of-order
	// record truncates the suffix at that point.
	Suffix []Entry
	// Damage notes what Load had to discard (diagnostics only).
	Damage []string
}

// ErrCorrupt wraps validation failures of on-disk records.
var ErrCorrupt = errors.New("storage: corrupt record")

const (
	ckptFile = "checkpoint.snap"
	metaFile = "meta.bin"
	walFile  = "wal.log"

	walMarker   = byte(0xC5)
	maxRecord   = 64 << 20 // cap per-record allocs on corrupt length fields
	opQueueSize = 4096
)

var (
	ckptMagic = []byte("SPDRCKP1")
	metaMagic = []byte("SPDRMET1")
)

type opKind int

const (
	opAppend opKind = iota
	opCheckpoint
	opMeta
	opSync
)

type wop struct {
	kind opKind
	seq  uint64
	data []byte
	ack  chan error
}

// DirStore is the directory-backed Store implementation. One DirStore
// owns its directory; never open two stores on the same directory at
// once.
type DirStore struct {
	dir string

	mu     sync.RWMutex // guards closed vs. enqueue
	closed bool
	ch     chan wop
	wg     sync.WaitGroup

	// DroppedAppends counts log records discarded because the
	// write-behind queue was full (the hot path never blocks). A drop
	// shortens the recoverable suffix, never corrupts it: Load stops at
	// the resulting position gap.
	dropped atomic.Int64
	// lastErr remembers the most recent write failure (diagnostics).
	lastErr atomic.Value // error
}

var _ Store = (*DirStore)(nil)

// Open creates (if needed) the directory and starts the writer.
func Open(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &DirStore{dir: dir, ch: make(chan wop, opQueueSize)}
	s.wg.Add(1)
	go s.runWriter()
	return s, nil
}

// DroppedAppends reports how many log records the full write-behind
// queue discarded.
func (s *DirStore) DroppedAppends() int64 { return s.dropped.Load() }

// Err returns the most recent write failure, if any.
func (s *DirStore) Err() error {
	if v := s.lastErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// SaveCheckpoint implements Store. Blocks only if the queue is full of
// still-unwritten checkpoints (never in practice: checkpoints are
// orders of magnitude rarer than appends).
func (s *DirStore) SaveCheckpoint(seq uint64, state []byte) {
	s.enqueue(wop{kind: opCheckpoint, seq: seq, data: state}, true)
}

// Append implements Store. Never blocks: when the queue is full the
// record is dropped and counted, shortening the recoverable suffix.
func (s *DirStore) Append(pos uint64, payload []byte) {
	if !s.enqueue(wop{kind: opAppend, seq: pos, data: payload}, false) {
		s.dropped.Add(1)
	}
}

// SaveMeta implements Store.
func (s *DirStore) SaveMeta(data []byte) {
	s.enqueue(wop{kind: opMeta, data: data}, true)
}

// Sync implements Store.
func (s *DirStore) Sync() error {
	ack := make(chan error, 1)
	if !s.enqueue(wop{kind: opSync, ack: ack}, true) {
		return errors.New("storage: store closed")
	}
	return <-ack
}

// Close implements Store.
func (s *DirStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.ch)
	s.mu.Unlock()
	s.wg.Wait()
	return s.Err()
}

// enqueue submits one op; block selects blocking vs. best-effort.
func (s *DirStore) enqueue(op wop, block bool) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return false
	}
	if block {
		s.ch <- op
		return true
	}
	select {
	case s.ch <- op:
		return true
	default:
		return false
	}
}

// runWriter is the write-behind goroutine: it drains the queue in
// batches and fsyncs once per batch, so a burst of appends costs one
// disk sync, not one per record.
func (s *DirStore) runWriter() {
	defer s.wg.Done()
	var wal *os.File
	defer func() {
		if wal != nil {
			wal.Close()
		}
	}()
	fail := func(err error) {
		if err != nil {
			s.lastErr.Store(err)
		}
	}
	openWAL := func() *os.File {
		if wal == nil {
			f, err := os.OpenFile(filepath.Join(s.dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fail(err)
				return nil
			}
			wal = f
		}
		return wal
	}

	for op := range s.ch {
		walDirty := false
		var acks []chan error
		for {
			switch op.kind {
			case opAppend:
				if f := openWAL(); f != nil {
					fail(writeWALRecord(f, op.seq, op.data))
					walDirty = true
				}
			case opCheckpoint:
				// Order matters: the snapshot must be durable before the
				// log records it covers disappear, so sync the snapshot
				// first, then truncate the segment.
				if walDirty && wal != nil {
					fail(wal.Sync())
					walDirty = false
				}
				fail(writeAtomic(s.dir, ckptFile, encodeCheckpoint(op.seq, op.data)))
				if wal != nil {
					fail(wal.Truncate(0))
					fail(wal.Sync())
				} else {
					fail(os.WriteFile(filepath.Join(s.dir, walFile), nil, 0o644))
				}
			case opMeta:
				fail(writeAtomic(s.dir, metaFile, encodeMeta(op.data)))
			case opSync:
				acks = append(acks, op.ack)
			}
			// Batch: drain whatever queued meanwhile without blocking.
			select {
			case next, ok := <-s.ch:
				if !ok {
					s.finishBatch(wal, walDirty, acks)
					return
				}
				op = next
				continue
			default:
			}
			break
		}
		s.finishBatch(wal, walDirty, acks)
	}
}

// finishBatch performs the one deferred fsync of a drained batch and
// releases any Sync waiters.
func (s *DirStore) finishBatch(wal *os.File, walDirty bool, acks []chan error) {
	if walDirty && wal != nil {
		if err := wal.Sync(); err != nil {
			s.lastErr.Store(err)
		}
	}
	err := s.Err()
	for _, ack := range acks {
		ack <- err
	}
}

// --- encoding ---------------------------------------------------------------

func digestOf(seq uint64, data []byte) [sha256.Size]byte {
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], seq)
	h := sha256.New()
	h.Write(hdr[:])
	h.Write(data)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

func encodeCheckpoint(seq uint64, state []byte) []byte {
	buf := make([]byte, 0, len(ckptMagic)+1+8+4+len(state)+sha256.Size)
	buf = append(buf, ckptMagic...)
	buf = append(buf, 1) // version
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(state)))
	buf = append(buf, state...)
	d := digestOf(seq, state)
	return append(buf, d[:]...)
}

func decodeCheckpoint(buf []byte) (uint64, []byte, error) {
	min := len(ckptMagic) + 1 + 8 + 4 + sha256.Size
	if len(buf) < min || !bytes.Equal(buf[:len(ckptMagic)], ckptMagic) || buf[len(ckptMagic)] != 1 {
		return 0, nil, fmt.Errorf("%w: checkpoint header", ErrCorrupt)
	}
	off := len(ckptMagic) + 1
	seq := binary.BigEndian.Uint64(buf[off:])
	n := int(binary.BigEndian.Uint32(buf[off+8:]))
	off += 12
	if n < 0 || n > maxRecord || len(buf) != off+n+sha256.Size {
		return 0, nil, fmt.Errorf("%w: checkpoint truncated", ErrCorrupt)
	}
	state := buf[off : off+n]
	want := digestOf(seq, state)
	if !bytes.Equal(buf[off+n:], want[:]) {
		return 0, nil, fmt.Errorf("%w: checkpoint digest mismatch", ErrCorrupt)
	}
	return seq, state, nil
}

func encodeMeta(data []byte) []byte {
	buf := make([]byte, 0, len(metaMagic)+4+len(data)+sha256.Size)
	buf = append(buf, metaMagic...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(data)))
	buf = append(buf, data...)
	d := digestOf(0, data)
	return append(buf, d[:]...)
}

func decodeMeta(buf []byte) ([]byte, error) {
	min := len(metaMagic) + 4 + sha256.Size
	if len(buf) < min || !bytes.Equal(buf[:len(metaMagic)], metaMagic) {
		return nil, fmt.Errorf("%w: meta header", ErrCorrupt)
	}
	n := int(binary.BigEndian.Uint32(buf[len(metaMagic):]))
	off := len(metaMagic) + 4
	if n < 0 || n > maxRecord || len(buf) != off+n+sha256.Size {
		return nil, fmt.Errorf("%w: meta truncated", ErrCorrupt)
	}
	data := buf[off : off+n]
	want := digestOf(0, data)
	if !bytes.Equal(buf[off+n:], want[:]) {
		return nil, fmt.Errorf("%w: meta digest mismatch", ErrCorrupt)
	}
	return data, nil
}

func writeWALRecord(f *os.File, pos uint64, payload []byte) error {
	buf := make([]byte, 0, 1+8+4+len(payload)+sha256.Size)
	buf = append(buf, walMarker)
	buf = binary.BigEndian.AppendUint64(buf, pos)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	d := digestOf(pos, payload)
	buf = append(buf, d[:]...)
	_, err := f.Write(buf)
	return err
}

// writeAtomic writes data to a temp file, syncs it, and renames it
// into place, so the target is always either the old or the new
// complete content.
func writeAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		os.Remove(tmpName)
		return err
	}
	// Durability of the rename itself.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// --- load -------------------------------------------------------------------

// Load implements Store. It must run before the first mutating call.
func (s *DirStore) Load() (*Image, error) {
	return LoadDir(s.dir)
}

// LoadDir validates a store directory without opening a writer.
func LoadDir(dir string) (*Image, error) {
	img := &Image{}
	haveAny := false

	ckptBuf, err := os.ReadFile(filepath.Join(dir, ckptFile))
	switch {
	case err == nil:
		seq, state, derr := decodeCheckpoint(ckptBuf)
		if derr != nil {
			// A corrupt checkpoint invalidates the whole image: the
			// suffix has no base to replay onto.
			return nil, derr
		}
		img.Seq = seq
		img.State = state
		haveAny = true
	case os.IsNotExist(err):
	default:
		return nil, err
	}

	if metaBuf, err := os.ReadFile(filepath.Join(dir, metaFile)); err == nil {
		if data, derr := decodeMeta(metaBuf); derr == nil {
			img.Meta = data
			haveAny = true
		} else {
			img.Damage = append(img.Damage, derr.Error())
		}
	}

	suffix, damage, err := loadWAL(filepath.Join(dir, walFile))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	img.Suffix = suffix
	img.Damage = append(img.Damage, damage...)
	if len(suffix) > 0 {
		haveAny = true
	}

	if !haveAny {
		return nil, nil
	}
	return img, nil
}

// loadWAL scans the segment file and returns the valid prefix of
// strictly-increasing records; anything from the first bad byte on is
// discarded (a crashed writer leaves at most one torn tail record).
func loadWAL(path string) ([]Entry, []string, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var entries []Entry
	var damage []string
	off := 0
	lastPos := uint64(0)
	for off < len(buf) {
		rest := buf[off:]
		if len(rest) < 1+8+4 || rest[0] != walMarker {
			damage = append(damage, fmt.Sprintf("wal: bad record header at offset %d", off))
			break
		}
		pos := binary.BigEndian.Uint64(rest[1:])
		n := int(binary.BigEndian.Uint32(rest[9:]))
		if n < 0 || n > maxRecord || len(rest) < 13+n+sha256.Size {
			damage = append(damage, fmt.Sprintf("wal: truncated record at offset %d", off))
			break
		}
		payload := rest[13 : 13+n]
		want := digestOf(pos, payload)
		if !bytes.Equal(rest[13+n:13+n+sha256.Size], want[:]) {
			damage = append(damage, fmt.Sprintf("wal: digest mismatch at offset %d", off))
			break
		}
		if len(entries) > 0 && pos <= lastPos {
			damage = append(damage, fmt.Sprintf("wal: non-monotonic position %d after %d", pos, lastPos))
			break
		}
		entries = append(entries, Entry{Pos: pos, Payload: payload})
		lastPos = pos
		off += 13 + n + sha256.Size
	}
	return entries, damage, nil
}
