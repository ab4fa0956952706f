package main

import (
	"fmt"
	"io"
	"math"

	"manetp2p"
)

// checker decides which replications failed the output check. Every
// failure is printed with its reason; a replication fails when its
// scenario errored, when its scenario's Result digest, rendered report,
// stream or checkpoint size differs between passes of one run, when
// the NewSimulation replay's frame totals differ from what the Result
// reports, or when its traced counters differ from its untraced ones.
type checker struct {
	scs []manetp2p.Scenario
	log io.Writer
	bad [][]bool // per scenario, per replication
}

func newChecker(scs []manetp2p.Scenario, log io.Writer) *checker {
	c := &checker{scs: scs, log: log, bad: make([][]bool, len(scs))}
	for i, sc := range scs {
		c.bad[i] = make([]bool, sc.Replications)
	}
	return c
}

func (c *checker) failScenario(i int, format string, args ...any) {
	fmt.Fprintf(c.log, "# FAIL %s: %s\n", c.scs[i].Name, fmt.Sprintf(format, args...))
	for r := range c.bad[i] {
		c.bad[i][r] = true
	}
}

func (c *checker) failedReps() int {
	n := 0
	for _, reps := range c.bad {
		for _, b := range reps {
			if b {
				n++
			}
		}
	}
	return n
}

// same compares pass p against the reference pass ref.
func (c *checker) same(what string, ref, p *pass) {
	for i := range c.scs {
		switch {
		case p.errs[i] != nil:
			c.failScenario(i, "%s: %v", what, p.errs[i])
		case p.digests[i] != ref.digests[i]:
			c.failScenario(i, "%s: Result digest %s, first pass %s", what, p.digests[i], ref.digests[i])
		case p.render != ref.render:
			c.failScenario(i, "%s: rendered report digest %s, first pass %s", what, p.render, ref.render)
		case p.streamPoints[i] != ref.streamPoints[i]:
			c.failScenario(i, "%s: %d streamed points, first pass %d", what, p.streamPoints[i], ref.streamPoints[i])
		case p.ckptBytes[i] != ref.ckptBytes[i]:
			c.failScenario(i, "%s: checkpoint %d bytes, first pass %d", what, p.ckptBytes[i], ref.ckptBytes[i])
		}
	}
}

// passes checks that every untraced pass reproduced the first.
func (c *checker) passes(ps []*pass) {
	for k, p := range ps {
		c.same(fmt.Sprintf("pass %d", k), ps[0], p)
	}
}

// frames checks the replay's frame totals against the Result's pooled
// per-node frame summaries.
func (c *checker) frames(p *pass, counts [][]counters, errs []error) {
	for i, r := range p.results {
		if errs[i] != nil {
			c.failScenario(i, "replay: %v", errs[i])
			continue
		}
		if r == nil {
			continue
		}
		var tx, rx uint64
		for _, cnt := range counts[i] {
			tx += cnt.TxFrames
			rx += cnt.RxFrames
		}
		resTx := r.TxFrames.Mean * float64(r.TxFrames.N)
		resRx := r.RxFrames.Mean * float64(r.RxFrames.N)
		if !near(float64(tx), resTx) || !near(float64(rx), resRx) {
			c.failScenario(i, "replay frames tx %d rx %d, Result reports tx %.1f rx %.1f", tx, rx, resTx, resRx)
		}
	}
}

// near allows the rounding of a mean times its count.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))+0.5 }

// traced checks the traced pass and replay against the untraced ones.
func (c *checker) traced(ref, p *pass, refCounts, counts [][]counters, errs []error) {
	c.same("traced pass", ref, p)
	for i := range c.scs {
		if errs[i] != nil {
			c.failScenario(i, "traced replay: %v", errs[i])
			continue
		}
		for r := range counts[i] {
			if counts[i][r] != refCounts[i][r] {
				fmt.Fprintf(c.log, "# FAIL %s rep %d: traced counters %+v, untraced %+v\n", c.scs[i].Name, r, counts[i][r], refCounts[i][r])
				c.bad[i][r] = true
			}
		}
	}
}

// printDigests prints each scenario's Result digest and the rendered
// report's digest, so two runs can be compared by eye or by diff.
func (c *checker) printDigests(p *pass) {
	for i, sc := range c.scs {
		fmt.Fprintf(c.log, "# digest %s %s\n", sc.Name, p.digests[i])
	}
	fmt.Fprintf(c.log, "# digest render %s\n", p.render)
}
