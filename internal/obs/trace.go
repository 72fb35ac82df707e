package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file holds the timeline exporters: Chrome trace-event JSON (load
// into chrome://tracing or https://ui.perfetto.dev) and folded stacks
// (the flamegraph.pl / speedscope input format), both weighted either by
// wall time or by attributed energy.

// chromeEvent is one trace-event record ("X" = complete event, with ts
// and dur in microseconds).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object container format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// laneState tracks one display lane's stack of open interval end times,
// so events placed on a lane always nest properly.
type laneState struct {
	ends []int64
}

// fits reports whether [start, end) can be placed on the lane — either
// after everything open on it, or nested inside the innermost open
// interval — and records the placement if so.
func (l *laneState) fits(start, end int64) bool {
	for n := len(l.ends); n > 0 && l.ends[n-1] <= start; n = len(l.ends) {
		l.ends = l.ends[:n-1]
	}
	if n := len(l.ends); n > 0 && end > l.ends[n-1] {
		return false
	}
	l.ends = append(l.ends, end)
	return true
}

// WriteChromeTrace emits the snapshot's span tree in the Chrome
// trace-event format. Concurrent sibling spans (goroutine fan-out) are
// spread greedily across display lanes (tid values) so overlapping
// intervals never share a lane; a child lands on its parent's lane when
// the intervals nest.
func (snap Snapshot) WriteChromeTrace(w io.Writer) error {
	type flat struct {
		node       *SpanNode
		parentLane int
	}
	var all []flat
	var collect func(n *SpanNode, parentIdx int)
	// Collect DFS preorder; parent index recorded by position so the
	// parent's assigned lane can be preferred later.
	idxOf := make(map[*SpanNode]int)
	collect = func(n *SpanNode, parentIdx int) {
		idxOf[n] = len(all)
		all = append(all, flat{node: n, parentLane: parentIdx})
		for _, c := range n.Children {
			collect(c, idxOf[n])
		}
	}
	for _, root := range snap.Spans {
		collect(root, -1)
	}

	// Assign lanes in start order so each lane's interval stack stays
	// consistent.
	order := make([]int, len(all))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return all[order[a]].node.StartUS < all[order[b]].node.StartUS
	})
	lanes := []*laneState{}
	laneOf := make([]int, len(all))
	for _, i := range order {
		n := all[i].node
		start, end := n.StartUS, n.StartUS+n.DurUS
		lane := -1
		if p := all[i].parentLane; p >= 0 && lanes[laneOf[p]].fits(start, end) {
			lane = laneOf[p]
		}
		if lane < 0 {
			for li, l := range lanes {
				if l.fits(start, end) {
					lane = li
					break
				}
			}
		}
		if lane < 0 {
			lanes = append(lanes, &laneState{ends: []int64{end}})
			lane = len(lanes) - 1
		}
		laneOf[i] = lane
	}

	trace := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(all)), DisplayTimeUnit: "ms"}
	for i, f := range all {
		n := f.node
		ev := chromeEvent{
			Name: n.Name, Ph: "X",
			TS: n.StartUS, Dur: n.DurUS,
			PID: 1, TID: laneOf[i] + 1,
		}
		if n.Joules != 0 || len(n.Attrs) > 0 || n.Open {
			ev.Args = make(map[string]any)
			if n.Joules != 0 {
				ev.Args["joules"] = n.Joules
				ev.Args["self_joules"] = n.SelfJoules
			}
			if n.Open {
				ev.Args["open"] = true
			}
			for k, v := range n.Attrs {
				ev.Args[k] = v
			}
		}
		trace.TraceEvents = append(trace.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}

// WriteFolded emits one "root;child;leaf weight" line per span — the
// folded-stack format flamegraph.pl and speedscope accept. Weights are a
// span's self wall time in microseconds, or with energy=true its self
// energy in microjoules; zero-weight frames are skipped.
func (snap Snapshot) WriteFolded(w io.Writer, energy bool) error {
	var b strings.Builder
	var walk func(n *SpanNode, prefix string)
	walk = func(n *SpanNode, prefix string) {
		name := strings.ReplaceAll(n.Name, ";", ":")
		path := name
		if prefix != "" {
			path = prefix + ";" + name
		}
		var weight int64
		if energy {
			weight = int64(n.SelfJoules * 1e6)
		} else {
			self := n.DurUS
			for _, c := range n.Children {
				self -= c.DurUS
			}
			if self < 0 {
				self = 0
			}
			weight = self
		}
		if weight > 0 {
			fmt.Fprintf(&b, "%s %d\n", path, weight)
		}
		for _, c := range n.Children {
			walk(c, path)
		}
	}
	for _, root := range snap.Spans {
		walk(root, "")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
