package main

import (
	"math/rand"
	"runtime"
	"time"
)

// The speed of the shared host this benchmark runs on wanders by ±20%
// over seconds to minutes (the other tenants' load on the caches and the
// memory bus), and it moves every latency of a run together: across six
// seeds of shapes-tokyo the raw CPU-time qps and latencies spread 0.13–0.16
// of their median between quartiles. The benchmark therefore interleaves
// a fixed calibration kernel with each workload and reports its timed
// metrics at a reference speed: a run whose calibration passes take twice
// calibRefMS has its latencies halved and its qps doubled. The kernel is
// the benchmark's own code and no program change touches it, so a change
// to the program moves the calibrated metrics as much as the raw ones;
// the same six runs, calibrated, spread 0.01–0.02.

// calibRefMS is the reference speed: the time in ms one calibration pass
// takes on the reference machine (a 2-vCPU Xeon VM at 2.1 GHz). Calibrated
// times are in ms of that machine.
const calibRefMS = 1.3

// calibEvery is the least time between two calibration passes of a
// measured phase.
const calibEvery = 25 * time.Millisecond

// calibSide is the side of the calibration grid: 9216 vertices, the order
// of the tokyo graph.
const calibSide = 96

// calibrator is the calibration kernel: a full Dijkstra with a binary
// heap over a fixed seeded grid graph in CSR form, run from a different
// source each pass and timed in thread CPU time.
type calibrator struct {
	off  []int32
	to   []int32
	w    []float32
	dist []float32
	heap []calibItem
	next int32
}

type calibItem struct {
	d float32
	v int32
}

// newCalibrator builds the calibration graph: a calibSide×calibSide grid
// with 4-neighbour edges weighted uniformly in [1, 10).
func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(7))
	n := calibSide * calibSide
	c := &calibrator{off: make([]int32, n+1), dist: make([]float32, n)}
	for v := 0; v < n; v++ {
		x, y := v%calibSide, v/calibSide
		for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx, ny := x+d[0], y+d[1]
			if nx < 0 || ny < 0 || nx >= calibSide || ny >= calibSide {
				continue
			}
			c.to = append(c.to, int32(ny*calibSide+nx))
			c.w = append(c.w, 1+9*rng.Float32())
		}
		c.off[v+1] = int32(len(c.to))
	}
	return c
}

// pass settles the whole graph from the next source and returns the
// thread CPU time it took, in ms.
func (c *calibrator) pass() float64 {
	runtime.LockOSThread() // the thread CPU clock must read one thread
	defer runtime.UnlockOSThread()
	t0 := threadTime()
	src := c.next % int32(len(c.dist))
	c.next += 997
	for i := range c.dist {
		c.dist[i] = 1e30
	}
	c.dist[src] = 0
	h := append(c.heap[:0], calibItem{0, src})
	for len(h) > 0 {
		it := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; { // sift down
			l := 2*i + 1
			if l >= len(h) {
				break
			}
			if r := l + 1; r < len(h) && h[r].d < h[l].d {
				l = r
			}
			if h[i].d <= h[l].d {
				break
			}
			h[i], h[l] = h[l], h[i]
			i = l
		}
		if it.d > c.dist[it.v] {
			continue
		}
		for e := c.off[it.v]; e < c.off[it.v+1]; e++ {
			u, nd := c.to[e], it.d+c.w[e]
			if nd >= c.dist[u] {
				continue
			}
			c.dist[u] = nd
			h = append(h, calibItem{nd, u})
			for i := len(h) - 1; i > 0; { // sift up
				p := (i - 1) / 2
				if h[p].d <= h[i].d {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
		}
	}
	c.heap = h
	return ms(threadTime() - t0)
}

// calib is the run's calibrator; only the main goroutine uses it.
var calib = newCalibrator()

// speed is calibRefMS over the median of the given pass times: above 1 on
// a machine (or in a moment) faster than the reference.
func speed(passes []float64) float64 {
	return calibRefMS / median(passes)
}
