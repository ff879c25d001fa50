package main

import (
	"bytes"
	"compress/flate"
	"fmt"
	"sort"
	"time"
)

// The calibration kernel is a fixed unit of work owned by the benchmark and
// independent of the program under test: standard-library code (flate
// compression, a sort, map updates) whose mix of branches and table
// lookups resembles the simulator's. A shared host's speed drifts
// with its other tenants; on the 2-vCPU machine the benchmark was defined
// on, the same chase_mem pass ran at 2.5M and at 1.3M inst/s twenty
// minutes apart. Timing this kernel between operations measures that
// drift, and every end-to-end time is scaled by it (see around), so runs
// made at different times compare. Of the kernels tried, this one tracked
// the simulator's slowdowns most closely.
//
// Samples are taken only while the program under test is idle, with no
// simulation or daemon job in flight, and the kernel allocates nothing, so
// it pays no GC assists for the program's heap. Batch runs and set-ups also
// run debug.FreeOSMemory first, so no GC cycle is left running. A change
// that makes the program busier while it works, or its heap larger,
// therefore does not slow the kernel and so inflate its own scaled
// throughput.

// calibEvery is the least wall time between two calibration samples. After
// a long operation, up to calibBurst samples are taken at once, one per
// calibEvery that passed, so long cells are sampled as densely as short
// ones.
const (
	calibEvery = 250 * time.Millisecond
	calibBurst = 4
)

// calibNominal is about the kernel's duration, in seconds, on the machine
// the benchmark was defined on at a quiet time. A run whose kernel median
// equals it reports raw host times.
const calibNominal = 0.012

// The kernel's input and buffers are built once and reused, so a sample
// allocates nothing and never pays for a GC cycle of the program's heap.
var (
	calibText  []byte // compressible input
	calibInts  []int
	calibBuf   bytes.Buffer
	calibFlate *flate.Writer
	calibMap   map[uint64]uint64
	calibSink  int // keeps the kernel's results live
)

// calibrate runs the kernel once and returns its duration in seconds.
func calibrate() float64 {
	if calibText == nil {
		x := uint64(7)
		calibText = make([]byte, 192<<10)
		for i := range calibText {
			x = x*6364136223846793005 + 1442695040888963407
			calibText[i] = "abcdefghij"[(x>>33)%10]
		}
		calibInts = make([]int, 40_000)
		var err error
		if calibFlate, err = flate.NewWriter(&calibBuf, 5); err != nil {
			panic(err) // level 5 is valid; only a bug gets here
		}
		calibMap = make(map[uint64]uint64, 16384)
	}
	t0 := time.Now()
	calibBuf.Reset()
	calibFlate.Reset(&calibBuf)
	_, _ = calibFlate.Write(calibText) // writes to a bytes.Buffer do not fail
	_ = calibFlate.Close()
	x := uint64(3)
	for i := range calibInts {
		x = x*6364136223846793005 + 1442695040888963407
		calibInts[i] = int(x >> 20)
	}
	sort.Ints(calibInts)
	clear(calibMap)
	for i := 0; i < 60_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		calibMap[(x>>40)&16383] += x
	}
	calibSink += calibBuf.Len() + len(calibMap)
	return time.Since(t0).Seconds()
}

// calibrator collects kernel samples over a run.
type calibrator struct {
	last    time.Time
	samples []float64
}

// maybe takes the samples that are due.
func (c *calibrator) maybe() {
	for n := min(int(time.Since(c.last)/calibEvery), calibBurst); n > 0; n-- {
		c.force()
	}
}

// force takes a sample now.
func (c *calibrator) force() {
	c.samples = append(c.samples, calibrate())
	c.last = time.Now()
}

// factor is how much slower than nominal the host ran during the run: the
// median kernel time over calibNominal. daemon_mix's rates are multiplied
// by it.
func (c *calibrator) factor() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return median(c.samples) / calibNominal
}

// around is how much slower than nominal the host ran during a piece of
// work taken between samples i-1 and i: the mean of the two over
// calibNominal. Work that lasts milliseconds to a few seconds is tracked
// better by the samples next to it than by one factor for a whole run.
func (c *calibrator) around(i int) float64 {
	return (c.samples[i-1] + c.samples[i]) / 2 / calibNominal
}

// scaledMedian divides each of xs, times taken one after another with a
// sample before each and one after the last, by the factor around it, and
// returns the median.
func (c *calibrator) scaledMedian(xs []float64) float64 {
	if len(c.samples) != len(xs)+1 {
		panic(fmt.Sprintf("scaledMedian: %d samples around %d times", len(c.samples), len(xs)))
	}
	scaled := make([]float64, len(xs))
	for i, x := range xs {
		scaled[i] = x / c.around(i+1)
	}
	return median(scaled)
}
