package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one call from the benchmark into a layer: its name (the
// layer and entry point), the op it belongs to, its parent span and its
// host-time bounds.
type span struct {
	name       string
	op         int
	parent     int // index+1 of the enclosing span, 0 for a root
	start, end time.Time
}

// spans keeps the traced run's spans in memory. A nil *spans records
// nothing, which is how the untraced runs pass it.
type spans struct {
	list []span
	open []int // stack of indices of unfinished spans
	// hosts counts the fabric hosts the set-up built.
	hosts int
}

// built records n more fabric hosts built.
func (s *spans) built(n int) {
	if s != nil {
		s.hosts += n
	}
}

// begin opens a span and returns its handle for end.
func (s *spans) begin(name string, op int) int {
	if s == nil {
		return 0
	}
	parent := 0
	if n := len(s.open); n > 0 {
		parent = s.open[n-1] + 1
	}
	s.list = append(s.list, span{name: name, op: op, parent: parent, start: time.Now()})
	i := len(s.list) - 1
	s.open = append(s.open, i)
	return i
}

// end closes the span begin returned; spans close in stack order.
func (s *spans) end(i int) {
	if s == nil {
		return
	}
	s.list[i].end = time.Now()
	s.open = s.open[:len(s.open)-1]
}

// closeAll ends every open span, after a panic skipped their ends.
func (s *spans) closeAll() {
	for s != nil && len(s.open) > 0 {
		s.end(s.open[len(s.open)-1])
	}
}

// total is the summed duration of the spans with the given name.
func (s *spans) total(name string) time.Duration {
	var d time.Duration
	for _, sp := range s.list {
		if sp.name == name {
			d += sp.end.Sub(sp.start)
		}
	}
	return d
}

// summarize writes, per span name, the count, total time and self time
// (total minus the time its child spans cover).
func (s *spans) summarize(w io.Writer) {
	type agg struct {
		n           int
		total, self time.Duration
	}
	byName := map[string]*agg{}
	for _, sp := range s.list {
		a := byName[sp.name]
		if a == nil {
			a = &agg{}
			byName[sp.name] = a
		}
		d := sp.end.Sub(sp.start)
		a.n++
		a.total += d
		a.self += d
	}
	for _, sp := range s.list {
		if sp.parent > 0 {
			byName[s.list[sp.parent-1].name].self -= sp.end.Sub(sp.start)
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "span %-28s n=%-6d total=%10.3fms self=%10.3fms\n",
			n, a.n, a.total.Seconds()*1e3, a.self.Seconds()*1e3)
	}
}
