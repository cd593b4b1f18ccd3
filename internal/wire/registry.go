package wire

import "fmt"

// TypeTag identifies a concrete message type inside a Registry frame.
type TypeTag uint8

// Registry maps type tags to message constructors so a stream of
// heterogeneous messages can be framed and decoded. Each protocol layer
// owns its own registry; tags are scoped to the registry, not global.
//
// A Registry is built once during setup and must not be mutated after
// first use; it is then safe for concurrent readers.
type Registry struct {
	factories map[TypeTag]func() Message
	tags      map[string]TypeTag
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		factories: make(map[TypeTag]func() Message),
		tags:      make(map[string]TypeTag),
	}
}

// Register associates tag with a constructor for one concrete message
// type. name is used for diagnostics and reverse lookup. Register
// panics on duplicate tags or names: registry construction is static
// wiring, and a duplicate is a programming error.
func (g *Registry) Register(tag TypeTag, name string, factory func() Message) {
	if _, dup := g.factories[tag]; dup {
		panic(fmt.Sprintf("wire: duplicate tag %d", tag))
	}
	if _, dup := g.tags[name]; dup {
		panic(fmt.Sprintf("wire: duplicate message name %q", name))
	}
	g.factories[tag] = factory
	g.tags[name] = tag
}

// EncodeFrame serializes m prefixed with its type tag into a fresh,
// exactly-sized slice the caller owns.
func (g *Registry) EncodeFrame(tag TypeTag, m Marshaler) []byte {
	w := GetWriter()
	w.WriteU8(byte(tag))
	m.MarshalWire(w)
	out := append([]byte(nil), w.Bytes()...)
	PutWriter(w)
	return out
}

// AppendFrame serializes m prefixed with its type tag, appending to
// dst; the caller owns dst throughout (see the package ownership
// rules). With sufficient capacity no allocation occurs. It is the
// framing companion of AppendEncode and the hot-path encode primitive
// (pbft's multicast path appends frames into pooled writer buffers).
func (g *Registry) AppendFrame(dst []byte, tag TypeTag, m Marshaler) []byte {
	return AppendEncode(append(dst, byte(tag)), m)
}

// DecodeFrame parses a frame produced by EncodeFrame, returning the tag
// and the decoded message.
func (g *Registry) DecodeFrame(buf []byte) (TypeTag, Message, error) {
	return g.decodeFrame(buf, false)
}

// DecodeFrameShared is DecodeFrame with a zero-copy reader: decoded
// byte-slice fields alias buf (see NewSharedReader for the contract).
func (g *Registry) DecodeFrameShared(buf []byte) (TypeTag, Message, error) {
	return g.decodeFrame(buf, true)
}

func (g *Registry) decodeFrame(buf []byte, shared bool) (TypeTag, Message, error) {
	if len(buf) == 0 {
		return 0, nil, fmt.Errorf("%w: empty frame", ErrCorrupt)
	}
	tag := TypeTag(buf[0])
	factory, ok := g.factories[tag]
	if !ok {
		return 0, nil, fmt.Errorf("%w: unknown tag %d", ErrCorrupt, tag)
	}
	m := factory()
	var err error
	if shared {
		err = DecodeShared(buf[1:], m)
	} else {
		err = Decode(buf[1:], m)
	}
	if err != nil {
		return 0, nil, fmt.Errorf("tag %d: %w", tag, err)
	}
	return tag, m, nil
}
