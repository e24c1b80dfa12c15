// Package hotalloctest seeds hotalloc violations: allocation sites in
// //linefs:hotpath functions and their transitive same-package callees.
package hotalloctest

import (
	"fmt"
	"sort"

	"linefs/internal/compress"
	"linefs/internal/fs"
	"linefs/internal/sim"
)

type codec struct {
	buf   []byte
	tab   []uint16
	names map[string]int
}

type point struct{ x, y int }

//linefs:hotpath
func encode(c *codec, src []byte) []byte {
	tmp := make([]byte, len(src)) // want `make allocates in hot path`
	copy(tmp, src)
	return tmp
}

// encodeGuarded amortizes: the grow sits under a cap guard.
//
//linefs:hotpath
func encodeGuarded(c *codec, n int) {
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	c.buf = c.buf[:n]
}

// grow is the grow-helper shape: cap-guard early return, then allocate.
//
//linefs:hotpath
func grow(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	nb := make([]byte, n)
	copy(nb, b)
	return nb[:n]
}

// costed is the path-pick shape: a nil test returning early takes the
// cost-free path, which is exempt like any guard body; the costed path after
// it is not amortized by that test and is still checked.
//
//linefs:hotpath
func costed(la *fs.LogArea, ctx *fs.Ctx, e *fs.Entry, noCost bool) []byte {
	if noCost || ctx == nil {
		return make([]byte, 1)
	}
	la.Append(ctx, e)      // want `calls linefs/internal/fs\.Append, which is not marked`
	return make([]byte, 1) // want `make allocates in hot path`
}

//linefs:hotpath
func appendBad(c *codec, x byte) []byte {
	out := append(c.buf, x) // want `append may grow in hot path`
	return out
}

//linefs:hotpath
func appendSelf(c *codec, x byte) {
	c.buf = append(c.buf, x)
}

// appendAlias amortizes through a local alias of the owned buffer.
//
//linefs:hotpath
func appendAlias(c *codec, x byte) {
	d := c.buf
	c.buf = append(d, x)
}

//linefs:hotpath
func convert(b []byte, s string) int {
	n := len(string(b)) // want `string\(\[\]byte\) conversion copies in hot path`
	m := len([]byte(s)) // want `\[\]byte\(string\) conversion copies in hot path`
	v := any(n)         // want `conversion to interface boxes in hot path`
	_ = v
	return n + m
}

//linefs:hotpath
func format(v int) error {
	s := fmt.Sprintf("%d", v) // want `fmt\.Sprintf allocates in hot path`
	_ = s
	if v < 0 {
		return fmt.Errorf("negative: %d", v)
	}
	if v > 1<<30 {
		panic(fmt.Sprintf("huge: %d", v))
	}
	return nil
}

//linefs:hotpath
func closures(xs []int, target int) int {
	bad := func() int { return target } // want `function literal allocates a closure in hot path`
	i := sort.Search(len(xs), func(j int) bool { return xs[j] >= target })
	return bad() + i
}

//linefs:hotpath
func literals() int {
	xs := []int{1, 2, 3}        // want `composite literal allocates in hot path`
	m := map[string]int{"a": 1} // want `composite literal allocates in hot path`
	val := point{1, 2}
	ptr := &point{3, 4} // want `address of composite literal allocates in hot path`
	return len(xs) + len(m) + val.x + ptr.y
}

//linefs:hotpath
func outer(c *codec, src []byte) {
	inner(c, src)
}

func inner(c *codec, src []byte) {
	c.buf = make([]byte, len(src)) // want `make allocates in hot path \(reached from //linefs:hotpath outer\)`
}

// lazyInit calls into one-time setup under a nil guard; the callee is not
// followed.
//
//linefs:hotpath
func lazyInit(c *codec) {
	if c.tab == nil {
		initTab(c)
	}
	c.tab[0] = 1
}

func initTab(c *codec) {
	c.tab = make([]uint16, 256)
	c.names = make(map[string]int)
}

// crossGood calls cross-package functions that carry the annotation.
//
//linefs:hotpath
func crossGood(e *fs.Entry, enc *compress.Encoder, dst, src []byte) []byte {
	dst = e.AppendWire(dst)
	dst = enc.CompressInto(dst, src)
	return dst
}

//linefs:hotpath
func crossBad(la *fs.LogArea, ctx *fs.Ctx, e *fs.Entry) {
	la.Append(ctx, e) // want `calls linefs/internal/fs\.Append, which is not marked`
}

// simCall: the simulation kernel is exempt from the annotation rule.
//
//linefs:hotpath
func simCall(q *sim.Queue, p *sim.Proc, v int) {
	q.Put(p, v)
}

// allowedCopy carries a justified suppression for a contract-sanctioned
// copy.
//
//linefs:hotpath
func allowedCopy(b []byte) string {
	//lint:allow hotalloc one owned-name copy per entry is the decode contract
	return string(b)
}
