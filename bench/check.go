package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
)

// digest hashes a cell's simulated results — quantities that depend on
// the inputs and the model only, never on host time. Two cells with
// the same inputs must produce the same digest; a change that moves it
// has changed the simulation, not just its speed.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

// add folds labelled integers into the hash.
func (d *digest) add(label string, vals ...int64) {
	fmt.Fprintf(d.h, "%s", label)
	for _, v := range vals {
		fmt.Fprintf(d.h, " %d", v)
	}
	fmt.Fprintln(d.h)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// gate is the benchmark's correctness check. Every operation a cell
// performs — a flow, a replayed trace, a deployment, a projectability
// check — is counted once; one that errs, stays incomplete, drops on
// the lossless fabric or disagrees with its reference is a failure.
type gate struct {
	attempted, failed int
	cell              int
	msgs              []string
}

// ops counts n operations of which bad failed.
func (g *gate) ops(n, bad int, format string, args ...any) {
	g.attempted += n
	if bad > 0 {
		g.failed += bad
		g.msgs = append(g.msgs, fmt.Sprintf("cell %d: %d/%d failed: ", g.cell, bad, n)+fmt.Sprintf(format, args...))
	}
}

// op counts one operation that succeeded iff ok.
func (g *gate) op(ok bool, format string, args ...any) {
	bad := 0
	if !ok {
		bad = 1
	}
	g.ops(1, bad, format, args...)
}

// err counts one operation that succeeded iff err is nil and reports
// whether it did.
func (g *gate) err(err error, what string) bool {
	g.op(err == nil, "%s: %v", what, err)
	return err == nil
}
