package core

import (
	"fmt"

	"spider/internal/stats"
)

// CommitStats aggregates the commit-channel data-plane counters the
// evaluation surfaces: payload bytes handed to commit-channel Sends and
// wide-area envelope bytes the channels actually shipped. Every Execute
// carries its request in full (Figure 17), so these are the whole
// commit-channel byte cost. One instance may be shared by any number of
// replicas.
type CommitStats struct {
	PayloadBytes stats.Counter // bytes submitted to commit-channel Sends (per group, per batch)
	WireBytes    stats.Counter // WAN bytes shipped by the channel senders (envelopes x recipients)
}

// CommitSummary is a point-in-time copy of CommitStats.
type CommitSummary struct {
	PayloadBytes int64
	WireBytes    int64
}

// Summarize snapshots the counters.
func (s *CommitStats) Summarize() CommitSummary {
	return CommitSummary{
		PayloadBytes: s.PayloadBytes.Load(),
		WireBytes:    s.WireBytes.Load(),
	}
}

// Reset zeroes all counters.
func (s *CommitStats) Reset() {
	s.PayloadBytes.Reset()
	s.WireBytes.Reset()
}

// String renders the summary in a compact, table-friendly form.
func (s CommitSummary) String() string {
	return fmt.Sprintf("payload=%dB wire=%dB", s.PayloadBytes, s.WireBytes)
}
