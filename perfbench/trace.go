package main

import (
	"encoding/json"
	"sort"
)

// spanTotals aggregates the spans of one traced run by name: how many
// there were, their summed duration, and their summed self time.
type spanTotals struct {
	count   map[string]int
	totalMs map[string]float64
	selfMs  map[string]float64
}

// analyseTrace computes per-name totals from a Chrome trace_event export.
// A span's self time is its duration minus the time its child spans
// cover. The tracer nests a span on its parent's lane whenever the
// parent has no other open child, so every lane is a stack of properly
// nested spans and a child is the next span on the lane that starts
// inside the open one. Concurrent siblings open lanes of their own,
// whose time is therefore not subtracted from their parent; the layers
// reported here (reach, simcheck, goodloc, collapse, refine, iteration,
// circ.check, unit) always run their children sequentially. SMT solves
// are detached spans on lanes of their own, so smt.solve time stays
// inside the self time of the reach, simcheck or collapse span that
// issued it.
func analyseTrace(data []byte) (spanTotals, error) {
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int64   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return spanTotals{}, err
	}
	type span struct {
		name       string
		start, end float64
		covered    float64
	}
	lanes := map[int64][]*span{}
	for _, ev := range f.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		lanes[ev.TID] = append(lanes[ev.TID], &span{name: ev.Name, start: ev.TS, end: ev.TS + ev.Dur})
	}
	const eps = 1e-3 // exporter rounding, in microseconds
	out := spanTotals{count: map[string]int{}, totalMs: map[string]float64{}, selfMs: map[string]float64{}}
	for _, spans := range lanes {
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].end > spans[j].end
		})
		var stack []*span
		for _, s := range spans {
			for len(stack) > 0 && stack[len(stack)-1].end <= s.start+eps {
				stack = stack[:len(stack)-1]
			}
			if n := len(stack); n > 0 && s.end <= stack[n-1].end+eps {
				stack[n-1].covered += s.end - s.start
			}
			stack = append(stack, s)
		}
		for _, s := range spans {
			out.count[s.name]++
			out.totalMs[s.name] += (s.end - s.start) / 1000
			out.selfMs[s.name] += (s.end - s.start - s.covered) / 1000
		}
	}
	return out, nil
}
