package app

import (
	"fmt"
	"sort"

	"spider/internal/wire"
)

// OpKind identifies a key-value store operation.
type OpKind uint8

// Key-value operations.
const (
	OpPut OpKind = iota + 1 // write: set key to value
	OpGet                   // read: fetch value of key
	OpDel                   // write: remove key
	OpInc                   // write: increment a counter key by delta
)

// Op is one key-value store operation. Clients encode Ops as request
// payloads; the store decodes and applies them.
type Op struct {
	Kind  OpKind
	Key   string
	Value []byte
	Delta int64 // used by OpInc
}

// MarshalWire implements wire.Marshaler.
func (o *Op) MarshalWire(w *wire.Writer) {
	w.WriteU8(byte(o.Kind))
	w.WriteString(o.Key)
	w.WriteBytes(o.Value)
	w.WriteVarint(o.Delta)
}

// UnmarshalWire implements wire.Unmarshaler.
func (o *Op) UnmarshalWire(r *wire.Reader) {
	o.Kind = OpKind(r.ReadU8())
	o.Key = r.ReadString()
	o.Value = r.ReadBytes()
	o.Delta = r.ReadVarint()
}

// Result is the reply to an Op.
type Result struct {
	OK      bool   // operation understood and applied
	Found   bool   // key existed (Get/Del)
	Value   []byte // value (Get) or new counter encoding (Inc)
	Counter int64  // counter value after OpInc
}

// MarshalWire implements wire.Marshaler.
func (res *Result) MarshalWire(w *wire.Writer) {
	w.WriteBool(res.OK)
	w.WriteBool(res.Found)
	w.WriteBytes(res.Value)
	w.WriteVarint(res.Counter)
}

// UnmarshalWire implements wire.Unmarshaler.
func (res *Result) UnmarshalWire(r *wire.Reader) {
	res.OK = r.ReadBool()
	res.Found = r.ReadBool()
	res.Value = r.ReadBytes()
	res.Counter = r.ReadVarint()
}

// EncodeOp serializes an operation for use as a request payload.
func EncodeOp(op Op) []byte { return wire.Encode(&op) }

// DecodeResult parses a reply payload produced by the store.
func DecodeResult(payload []byte) (Result, error) {
	var res Result
	if err := wire.Decode(payload, &res); err != nil {
		return Result{}, fmt.Errorf("app: decode result: %w", err)
	}
	return res, nil
}

// KVStore is a deterministic in-memory key-value store with canonical
// snapshots (keys serialized in sorted order). It implements
// Application.
type KVStore struct {
	data     map[string][]byte
	counters map[string]int64
}

var _ Application = (*KVStore)(nil)

// NewKVStore returns an empty store.
func NewKVStore() *KVStore {
	return &KVStore{
		data:     make(map[string][]byte),
		counters: make(map[string]int64),
	}
}

// Execute implements Application.
func (s *KVStore) Execute(opBytes []byte) []byte {
	var op Op
	if err := wire.Decode(opBytes, &op); err != nil {
		return wire.Encode(&Result{OK: false})
	}
	var res Result
	switch op.Kind {
	case OpPut:
		_, res.Found = s.data[op.Key]
		s.data[op.Key] = append([]byte(nil), op.Value...)
		res.OK = true
	case OpDel:
		_, res.Found = s.data[op.Key]
		delete(s.data, op.Key)
		res.OK = true
	case OpInc:
		s.counters[op.Key] += op.Delta
		res.OK = true
		res.Counter = s.counters[op.Key]
	case OpGet:
		// Get through the write path still works (a strongly
		// consistent read executed in order).
		res = s.get(op.Key)
	default:
		res.OK = false
	}
	return wire.Encode(&res)
}

// ExecuteRead implements Application; only OpGet is meaningful.
func (s *KVStore) ExecuteRead(opBytes []byte) []byte {
	var op Op
	if err := wire.Decode(opBytes, &op); err != nil || op.Kind != OpGet {
		return wire.Encode(&Result{OK: false})
	}
	res := s.get(op.Key)
	return wire.Encode(&res)
}

func (s *KVStore) get(key string) Result {
	if v, ok := s.data[key]; ok {
		return Result{OK: true, Found: true, Value: append([]byte(nil), v...)}
	}
	if c, ok := s.counters[key]; ok {
		return Result{OK: true, Found: true, Counter: c}
	}
	return Result{OK: true, Found: false}
}

// Snapshot implements Application. The encoding is canonical: keys are
// emitted in sorted order so equal states produce identical bytes.
func (s *KVStore) Snapshot() []byte {
	var w wire.Writer
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.WriteInt(len(keys))
	for _, k := range keys {
		w.WriteString(k)
		w.WriteBytes(s.data[k])
	}
	ckeys := make([]string, 0, len(s.counters))
	for k := range s.counters {
		ckeys = append(ckeys, k)
	}
	sort.Strings(ckeys)
	w.WriteInt(len(ckeys))
	for _, k := range ckeys {
		w.WriteString(k)
		w.WriteVarint(s.counters[k])
	}
	return w.Bytes()
}

// Restore implements Application.
func (s *KVStore) Restore(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	n := r.ReadInt()
	if n < 0 {
		return fmt.Errorf("app: corrupt snapshot: negative size")
	}
	data := make(map[string][]byte, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.ReadString()
		data[k] = r.ReadBytes()
	}
	cn := r.ReadInt()
	if cn < 0 {
		return fmt.Errorf("app: corrupt snapshot: negative counter size")
	}
	counters := make(map[string]int64, cn)
	for i := 0; i < cn && r.Err() == nil; i++ {
		k := r.ReadString()
		counters[k] = r.ReadVarint()
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("app: corrupt snapshot: %w", err)
	}
	s.data = data
	s.counters = counters
	return nil
}

// Len returns the number of stored keys (values plus counters),
// useful in tests and examples.
func (s *KVStore) Len() int { return len(s.data) + len(s.counters) }
