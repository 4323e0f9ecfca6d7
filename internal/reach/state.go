// Package reach implements ReachAndBuild (paper Algorithm 1): worklist
// reachability of the abstract multithreaded program ((C,P),(A,k)) — the
// main thread under predicate abstraction composed with counted abstract
// context threads — together with race detection, abstract counterexample
// extraction, and abstract reachability graph (ARG) construction
// (Algorithms 2-4).
package reach

import (
	"fmt"
	"strconv"
	"strings"

	"circ/internal/acfa"
	"circ/internal/cfa"
	"circ/internal/pred"
)

// Omega is the counter value abstracting "more than k" threads.
const Omega = -1

// Ctx is an abstract context state: a counter per ACFA location, each in
// {0..k, Omega}.
type Ctx []int

// CloneCtx copies the counter map.
func (c Ctx) CloneCtx() Ctx { return append(Ctx(nil), c...) }

// Key returns a canonical key.
func (c Ctx) Key() string { return string(c.appendKey(make([]byte, 0, 2*len(c)))) }

// appendKey appends the canonical key to buf.
func (c Ctx) appendKey(buf []byte) []byte {
	for i, v := range c {
		if i > 0 {
			buf = append(buf, ',')
		}
		if v == Omega {
			buf = append(buf, 'w')
		} else {
			buf = strconv.AppendInt(buf, int64(v), 10)
		}
	}
	return buf
}

func (c Ctx) String() string { return "[" + c.Key() + "]" }

// Occupied reports whether location n holds at least one thread.
func (c Ctx) Occupied(n acfa.Loc) bool { return c[n] != 0 }

// AtLeastTwo reports whether location n holds two or more threads.
func (c Ctx) AtLeastTwo(n acfa.Loc) bool { return c[n] == Omega || c[n] >= 2 }

// Inc returns the counter map with location n incremented under the
// k-counter abstraction (values above k saturate to Omega).
func (c Ctx) Inc(n acfa.Loc, k int) Ctx {
	out := c.CloneCtx()
	switch {
	case out[n] == Omega:
	case out[n]+1 > k:
		out[n] = Omega
	default:
		out[n]++
	}
	return out
}

// Dec returns the counter map with location n decremented; Omega-1 = Omega
// (an arbitrary number of threads remain).
func (c Ctx) Dec(n acfa.Loc) Ctx {
	out := c.CloneCtx()
	if out[n] != Omega && out[n] > 0 {
		out[n]--
	}
	return out
}

// ThreadState is an abstract state of the main thread: control location
// plus a predicate cube (locals refer to the main thread's copies).
type ThreadState struct {
	Loc  cfa.Loc
	Cube *pred.Cube

	// vid is the cube's valuation ID within one ReachAndBuild run: equal
	// three-valued vectors share an ID (see cubeTable).
	vid int32
}

// tsKey identifies a thread state: its location and cube valuation.
type tsKey struct {
	loc cfa.Loc
	vid int32
}

func (t ThreadState) key() tsKey { return tsKey{t.Loc, t.vid} }

func (t ThreadState) String() string {
	return fmt.Sprintf("(%d, %s)", t.Loc, t.Cube)
}

// State is an abstract program state: the main thread's state plus the
// abstract context state.
type State struct {
	TS  ThreadState
	Ctx Ctx
}

func (s *State) String() string {
	return fmt.Sprintf("%s %s", s.TS, s.Ctx)
}

// Op is one abstract transition: exactly one of MainEdge/EnvEdge is set.
type Op struct {
	MainEdge *cfa.Edge
	EnvEdge  *acfa.Edge
}

// IsEnv reports whether the op is a context move.
func (o Op) IsEnv() bool { return o.EnvEdge != nil }

func (o Op) String() string {
	if o.MainEdge != nil {
		return "T0: " + o.MainEdge.Op.String()
	}
	return "env: " + o.EnvEdge.String()
}

// Trace is an abstract counterexample: States[0] is initial and
// Steps[i] moves States[i] to States[i+1].
type Trace struct {
	States []*State
	Steps  []Op
}

func (t *Trace) String() string {
	var b strings.Builder
	for i, s := range t.States {
		fmt.Fprintf(&b, "%3d: %s\n", i, s)
		if i < len(t.Steps) {
			fmt.Fprintf(&b, "     %s\n", t.Steps[i])
		}
	}
	return b.String()
}
