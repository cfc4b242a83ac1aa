package tensor

// This file implements the tape's scheduled executor: the lifetime and
// rematerialization passes that turn the recorded op DAG from a
// retain-everything log into a memory-aware schedule.
//
// The framing is a retain set under a memory budget: of everything the
// forward pass produced, only three classes of buffer must survive any
// given point of the backward sweep —
//
//   - Values of nodes the sweep has not reached yet (their closures still
//     read parent values),
//   - Grads of nodes the sweep has not reached yet (consumers accumulate
//     into them),
//   - Values pinned with Keep plus Var/Const leaves (read by the caller
//     after Backward).
//
// Everything else is dead. The lifetime pass exploits the tape's
// topological record order to compute last-uses for free: every consumer
// of node i sits at an index greater than i, so by the time the descending
// sweep has run node i's own closure, no later closure can read i's Value
// or write i's Grad — both buffers are released immediately. Checkpoint
// inverts the same argument for the forward direction: a segment's
// interior values have no readers outside the segment (boundary values are
// Keep-pinned by the caller), so they can be dropped at record time and
// rebuilt from the fwd closures just before the sweep enters the segment.
//
// Neither pass touches the arithmetic: every closure runs the same
// floating-point operations in the same order, only buffer lifetimes
// change, so results are bit-identical; the differential harness
// (AssertSchedEquiv) and FuzzTapeSchedule pin that.

// Sched configures the tape's scheduled executor. The zero value is the
// plain record-order executor: nothing released before Reset, Checkpoint
// segments inert. Both passes preserve bit-identical outputs, gradients,
// and optimizer state; they only change when buffers live.
type Sched struct {
	// Lifetime releases each node's Value and Grad back to the arena as
	// soon as the backward sweep passes it, instead of holding every
	// buffer until Reset. Values pinned with Keep and Var/Const leaves
	// are exempt. Backward then consumes the recording (one Backward per
	// recording, then Reset).
	Lifetime bool
	// Remat arms Checkpoint segments: recorded intermediates inside a
	// segment are dropped when it closes and rematerialized from their
	// recompute closures during Backward. With Remat off, Checkpoint
	// just runs its function.
	Remat bool
}

// SchedAll enables every scheduling pass; the training engine's default.
var SchedAll = Sched{Lifetime: true, Remat: true}

// SetSched installs the scheduling configuration. It must be called while
// the tape is empty (freshly created or just Reset) so recording and
// execution agree on the schedule; calling it again with the same
// configuration is always allowed.
func (t *Tape) SetSched(s Sched) {
	if len(t.nodes) != 0 && s != t.sched {
		panic("tensor: SetSched on a non-empty tape")
	}
	t.sched = s
}

// Sched returns the tape's current scheduling configuration.
func (t *Tape) Sched() Sched { return t.sched }

// Keep pins node values until Reset: the scheduled Backward will not
// release them and Checkpoint segments will not drop them. Anything read
// after Backward returns — loss terms, the detached hidden state, harness
// probe outputs — must be pinned. Keep is idempotent and is a no-op for
// nil nodes and under the plain executor.
func (t *Tape) Keep(ns ...*Node) {
	for _, n := range ns {
		if n != nil {
			n.keep = true
		}
	}
}

// ReleaseGrad returns n's gradient buffer to the arena immediately instead
// of waiting for Reset. Gradient sinks call it once they have accumulated
// a leaf's gradient; n.Grad must not be read afterwards.
func (t *Tape) ReleaseGrad(n *Node) {
	if n.Grad != nil {
		t.putBuf(&n.Grad)
	}
}

// Checkpoint records everything fn adds to the tape as one
// rematerialization segment. When the schedule arms Remat, the segment's
// interior values — pooled, not Keep-pinned, rebuildable from a recompute
// closure — are dropped back to the arena as soon as fn returns, and
// rebuilt in recording order when the backward sweep reaches the segment.
// Values consumed outside their segment (boundary hidden states, loss
// terms) must be pinned with Keep inside fn, before the segment closes.
// Segments must not nest.
func (t *Tape) Checkpoint(fn func()) {
	if !t.sched.Remat {
		fn()
		return
	}
	if t.segDepth != 0 {
		panic("tensor: nested Checkpoint segments")
	}
	t.segDepth = 1
	t.segStart = len(t.nodes)
	fn()
	start, end := t.segStart, len(t.nodes)
	t.segDepth = 0
	dropped := false
	for k := start; k < end; k++ {
		n := t.nodes[k]
		if n.pooled && !n.keep && n.fwd != nil {
			t.putBuf(&n.Value)
			n.pooled = false
			n.dropped = true
			dropped = true
		}
	}
	if dropped {
		t.segs = append(t.segs, seg{start: start, end: end})
	}
}

// remat rebuilds a segment's dropped values in recording order. Parent
// values are available by construction: earlier in-segment nodes are
// rebuilt first, pre-segment nodes have not been released yet (the sweep
// has not passed them), and cross-segment inputs are Keep-pinned.
func (t *Tape) remat(s seg) {
	for k := s.start; k < s.end; k++ {
		n := t.nodes[k]
		if n.dropped {
			n.Value = n.fwd()
			n.dropped = false
			n.pooled = true
			t.trackAlloc(int64(len(n.Value.Data)) * 8)
		}
	}
}

// ---- Live-byte accounting ----

// trackAlloc records b bytes of tape-owned buffer being checked out.
func (t *Tape) trackAlloc(b int64) {
	t.live += b
	if t.live > t.peak {
		t.peak = t.live
	}
}

// putBuf returns a tape-owned buffer to the arena and clears the pointer.
func (t *Tape) putBuf(m **Matrix) {
	t.live -= int64(len((*m).Data)) * 8
	Put(*m)
	*m = nil
}

// LiveBytes returns the bytes of tape-owned buffers (op outputs and
// gradients) currently checked out of the arena. Zero after Reset.
func (t *Tape) LiveBytes() int64 { return t.live }

// PeakLiveBytes returns the high-water mark of LiveBytes since the tape
// was created or the mark was last reset. It survives Reset, so it
// reports the per-window peak across a whole training run.
func (t *Tape) PeakLiveBytes() int64 { return t.peak }

// ResetPeakLiveBytes rewinds the high-water mark to the current level.
func (t *Tape) ResetPeakLiveBytes() { t.peak = t.live }
