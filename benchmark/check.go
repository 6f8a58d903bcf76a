package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// defaultSeed is the seed expected.json was recorded under.
const defaultSeed = 1

// expectedJSON holds, for the default seed, every cell's simulated
// outputs: event count, fabric totals and a digest of its result
// values. Regenerate it with -write-expected after a change that is
// meant to alter simulated results; host timings never enter it.
//
//go:embed expected.json
var expectedJSON []byte

// outputs is what the check compares for one cell.
type outputs struct {
	Cell      string `json:"cell"`
	Events    uint64 `json:"events"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
	Digest    string `json:"digest"`
}

// expectations is the expected.json document.
type expectations struct {
	Seed      uint64               `json:"seed"`
	Workloads map[string][]outputs `json:"workloads"`
}

func loadExpectations() (expectations, error) {
	var x expectations
	if err := json.Unmarshal(expectedJSON, &x); err != nil {
		return x, fmt.Errorf("parsing expected.json: %w", err)
	}
	return x, nil
}

// digest hashes a cell's values. %v prints floats in their shortest
// exact form and durations to the nanosecond, so equal digests mean
// equal values.
func digest(values []any) string {
	h := sha256.New()
	for _, v := range values {
		fmt.Fprintf(h, "%v\x00", v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func outputsOf(c cell) outputs {
	return outputs{Cell: c.Name, Events: c.Events, Delivered: c.Delivered, Dropped: c.Dropped, Digest: digest(c.Values)}
}

// check fails every op of a cell whose outputs differ from want (the
// expected values, nil when the seed has none) or from ref (the first
// rep's outputs, nil on the first rep). A mismatch is a failed op,
// never a crash.
func check(cells []cell, want, ref []outputs) {
	for _, against := range []struct {
		what string
		out  []outputs
	}{{"expected.json", want}, {"the first rep", ref}} {
		if against.out == nil {
			continue
		}
		if len(against.out) != len(cells) {
			for i := range cells {
				cells[i].fail(cells[i].Ops, fmt.Sprintf("%d cells, %s has %d", len(cells), against.what, len(against.out)))
			}
			continue
		}
		for i := range cells {
			if got := outputsOf(cells[i]); got != against.out[i] {
				cells[i].fail(cells[i].Ops, fmt.Sprintf("outputs %+v differ from %s %+v", got, against.what, against.out[i]))
			}
		}
	}
}
