// Package ids defines the identifier types shared by every component of
// the Spider reproduction: nodes (replicas and clients), replica groups,
// and message streams.
//
// Identifiers are small integer types so they can be embedded in wire
// messages cheaply and compared without allocation. A NodeID is unique
// across the whole deployment; replicas additionally belong to exactly
// one group identified by a GroupID.
package ids

import "strconv"

// NodeID uniquely identifies a node (replica or client) in a deployment;
// valid node identifiers start at 1.
type NodeID int32

// String returns a short human-readable form such as "n7".
func (n NodeID) String() string { return "n" + strconv.FormatInt(int64(n), 10) }

// Valid reports whether the identifier denotes an actual node.
func (n NodeID) Valid() bool { return n > 0 }

// GroupID identifies a replica group (the agreement group or one of the
// execution groups).
type GroupID int32

// NoGroup is the zero GroupID; valid group identifiers start at 1.
const NoGroup GroupID = 0

// String returns a short human-readable form such as "g2".
func (g GroupID) String() string { return "g" + strconv.FormatInt(int64(g), 10) }

// Valid reports whether the identifier denotes an actual group.
func (g GroupID) Valid() bool { return g > 0 }

// ClientID identifies a client. Clients live in the same identifier
// space as nodes so that transport and authentication can treat them
// uniformly, but the distinct type prevents accidental mixups in
// protocol state that is indexed per client.
type ClientID int32

// String returns a short human-readable form such as "c12".
func (c ClientID) String() string { return "c" + strconv.FormatInt(int64(c), 10) }

// Valid reports whether the identifier denotes an actual client.
func (c ClientID) Valid() bool { return c > 0 }

// Node converts the client identifier to the node identifier it shares.
func (c ClientID) Node() NodeID { return NodeID(c) }

// SeqNr is a protocol sequence number (agreement order position).
type SeqNr uint64

// Position is an index into an IRMC subchannel. Request subchannels use
// the client's request counter as the position; the commit subchannel
// uses the agreement sequence number.
type Position uint64

// Subchannel names one FIFO lane inside an IRMC. The request channel
// uses one subchannel per client (keyed by ClientID); the commit
// channel uses subchannel 0.
type Subchannel int32

// Group describes a replica group: its identifier, its members in a
// canonical order, and the number of Byzantine members it tolerates.
type Group struct {
	ID      GroupID
	Members []NodeID
	F       int // number of tolerated Byzantine faults
}

// Size returns the number of members.
func (g Group) Size() int { return len(g.Members) }

// Contains reports whether id is a member of the group.
func (g Group) Contains(id NodeID) bool {
	for _, m := range g.Members {
		if m == id {
			return true
		}
	}
	return false
}

// IndexOf returns the position of id within the member list, or -1.
func (g Group) IndexOf(id NodeID) int {
	for i, m := range g.Members {
		if m == id {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy of the group. Callers that store groups in
// long-lived state should clone them so later mutations by the caller
// cannot alias protocol state.
func (g Group) Clone() Group {
	members := make([]NodeID, len(g.Members))
	copy(members, g.Members)
	return Group{ID: g.ID, Members: members, F: g.F}
}
