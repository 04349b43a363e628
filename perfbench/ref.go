package main

import (
	"sync"
	"time"
)

// Host-scaled time. The VM this benchmark was written on changed speed by
// 2-3x over hours with little steal to show for it, so a raw wall-clock
// time follows the host as much as the program. Every time the benchmark
// reports is therefore scaled by how fast the host ran a fixed reference
// task at that moment, and by the share of the stretch the hypervisor
// stole: raw time × (1 - stolen share) × refNominalMS / the task's time.
// The task runs none of the program's code, so a change to the program
// moves the scaled times and a slower host does not. The record of every
// run prints the raw times next to the scaled ones; README.md has the
// measurements.
//
// The task is an integer loop that touches no memory. Of the candidates
// tried on the VM (that loop, random access over 4 MiB, a pointer chase
// over 32 MiB, sorting and hashing, loopback HTTP round trips) it was the
// steadiest when the host was, and the only one the workloads followed: a
// paper op's time per SAT propagation with a log-log slope of 1.05, the
// per-second throughput of svc-warm with -1.06. The others, timed in the
// gaps of a service loop, mostly measured the daemons' leftover work.

// refNominalMS is the reference task's time on the host every reported
// time is scaled to: about what it took on the 2-vCPU VM the benchmark was
// written on, so scaled times read close to that VM's raw ones.
const refNominalMS = 2.0

var refSink uint64

// refTask runs the reference task once and returns its time in ms: 2^19
// rounds of xorshift and multiply, each depending on the last.
func refTask() float64 {
	t := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<19; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x *= 0x9E3779B97F4A7C15
	}
	d := time.Since(t)
	refSink += x
	return ms(d)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// refSamples is how many timings of the task make one mark; the mark is
// their median, so a timing the daemons' leftover work or a moment of
// steal slowed does not move it.
const refSamples = 5

func refMark() float64 {
	s := make([]float64, refSamples)
	for i := range s {
		s[i] = refTask()
	}
	return median(s)
}

// segClock splits a timed stretch into segments and marks the host's speed
// at every cut. Callers hold the gate (enter/leave) around each op; a cut
// takes it exclusively, so no op of the workload is in flight while the
// reference task runs, and every op belongs to the segment it started in.
type segClock struct {
	gate   sync.RWMutex
	cur    int
	start  time.Time
	host   cpuTimes        // at the start of the current segment
	walls  []time.Duration // one per closed segment
	stolen []float64       // per closed segment, its stolenShare
	marks  []float64       // ms; segment i lies between marks i and i+1
}

// segDur is how long a timed loop's segment runs before the next cut.
const segDur = time.Second

func newSegClock() *segClock {
	c := &segClock{marks: []float64{refMark()}}
	c.open()
	return c
}

func (c *segClock) open() {
	c.host = readCPUTimes()
	c.start = time.Now()
}

func (c *segClock) closeLocked() {
	c.walls = append(c.walls, time.Since(c.start))
	c.stolen = append(c.stolen, stolenShare(c.host, readCPUTimes()))
	c.marks = append(c.marks, refMark())
}

// enter admits one op and returns its segment.
func (c *segClock) enter() int {
	c.gate.RLock()
	return c.cur
}

func (c *segClock) leave() { c.gate.RUnlock() }

// due reports whether the current segment has run for segDur.
func (c *segClock) due() bool {
	c.gate.RLock()
	defer c.gate.RUnlock()
	return time.Since(c.start) >= segDur
}

// cut closes the current segment, marks, and opens the next.
func (c *segClock) cut() {
	c.gate.Lock()
	defer c.gate.Unlock()
	c.closeLocked()
	c.cur++
	c.open()
}

// end closes the last segment with a final mark.
func (c *segClock) end() {
	c.gate.Lock()
	defer c.gate.Unlock()
	c.closeLocked()
}

// cutEvery cuts every segDur until stop is closed; the returned channel
// is closed once it has stopped.
func (c *segClock) cutEvery(stop <-chan struct{}) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		tk := time.NewTicker(segDur)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				c.cut()
			}
		}
	}()
	return done
}

// scale is the factor that turns a raw time in segment seg into a scaled
// one: the share of the segment not stolen, times refNominalMS over the
// mean of the marks that bound it. A nil clock leaves times raw.
func (c *segClock) scale(seg int) float64 {
	if c == nil {
		return 1
	}
	return (1 - c.stolen[seg]) * refNominalMS / ((c.marks[seg] + c.marks[seg+1]) / 2)
}

// elapsed is the scaled length of the whole stretch: the sum of its
// segments' wall times, each scaled.
func (c *segClock) elapsed() time.Duration {
	var t float64
	for i, w := range c.walls {
		t += float64(w) * c.scale(i)
	}
	return time.Duration(t)
}

// stolenMean is the share of the stretch's busy time stolen, weighting each
// segment by its wall time.
func (c *segClock) stolenMean() float64 {
	if c == nil {
		return 0
	}
	var sum, wall float64
	for i, w := range c.walls {
		sum += c.stolen[i] * float64(w)
		wall += float64(w)
	}
	return ratio(sum, wall)
}

// refRange summarizes the marks for the host record.
func (c *segClock) refRange() (lo, mid, hi float64) {
	if c == nil || len(c.marks) == 0 {
		return 0, 0, 0
	}
	lo, hi = c.marks[0], c.marks[0]
	for _, m := range c.marks {
		lo, hi = min(lo, m), max(hi, m)
	}
	return lo, median(c.marks), hi
}
