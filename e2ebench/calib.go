package main

import (
	"math"
	"slices"
	"strconv"
	"time"
)

// The host this benchmark runs on changes speed: on a shared 2-vCPU VM,
// phases lasting minutes make every timing, the server's CPU time included,
// read 1.3-2x slower. So a run also times hostWork, a fixed amount of work
// that calls no code of this repository, before its first round and at
// three moments in each round when no request is in flight. It reports
// every end-to-end timing as it would read on a host that does hostWork in
// refHostWorkS: the timing as measured times the speed factor, refHostWorkS
// over the run's mean hostWork time. No change to the program moves
// hostWork, so the factor takes out the host's speed and leaves the
// program's.
const (
	// refHostWorkS is hostWork's time on the reference host, a 2-vCPU
	// Intel Xeon VM in a fast phase.
	refHostWorkS = 0.010
	// hostWorkReps calls are timed before the first round, and calibReps
	// at each of three moments in a round when no request is in flight.
	hostWorkReps = 9
	calibReps    = 3
)

// hostWork is one unit of calibration work, the kinds of work the program
// does most: it builds a sorted key set, a string-keyed map and a set of
// 8-dimensional points, and sums L1 distances between pairs of points.
// Everything is allocated afresh on each call, so the calibration's mean
// covers many memory layouts, as the program's own allocations do: a
// version that reused one 4 MiB buffer per process read up to 9% faster or
// slower from one process to the next while the batch miner did not.
func hostWork(seed uint64) float64 {
	x := seed | 1
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	xs := make([]uint64, 1<<15)
	for i := range xs {
		xs[i] = next()
	}
	slices.Sort(xs)
	m := make(map[string]int)
	keys := make([]string, 1<<14)
	for i := range keys {
		keys[i] = "area/" + strconv.FormatUint(xs[i]%1000003, 16)
		m[keys[i]] = i
	}
	sum := 0.0
	for _, k := range keys {
		sum += float64(m[k])
	}
	type point struct{ x [8]float64 }
	pts := make([]*point, 1024)
	for i := range pts {
		p := &point{}
		for j := range p.x {
			p.x[j] = float64(next()%1000) / 1000
		}
		pts[i] = p
	}
	for i := range pts {
		for j := i + 1; j < len(pts); j += 3 {
			for k := range pts[i].x {
				sum += math.Abs(pts[i].x[k] - pts[j].x[k])
			}
		}
	}
	return sum
}

// calibrate times reps calls of hostWork and keeps each time.
func (b *bench) calibrate(reps int) {
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		b.hostWorkSum += hostWork(uint64(len(b.m.hostWorkS)))
		b.m.hostWorkS = append(b.m.hostWorkS, time.Since(t0).Seconds())
	}
}

// speedFactor is the run's speed factor: refHostWorkS over its mean
// calibration, 1 before any calibration. The mean, not the median: the
// host alternates between faster and slower states within seconds, and a
// round's timings average over them in proportion to their time.
func (b *bench) speedFactor() float64 {
	if len(b.m.hostWorkS) == 0 {
		return 1
	}
	sum := 0.0
	for _, s := range b.m.hostWorkS {
		sum += s
	}
	return refHostWorkS * float64(len(b.m.hostWorkS)) / sum
}
