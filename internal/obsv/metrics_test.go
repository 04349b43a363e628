package obsv

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("janus_test_ops_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("janus_test_ops_total") != c {
		t.Fatal("Counter must return the same handle per name")
	}
	g := r.Gauge("janus_test_depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	r.RegisterFunc("janus_test_fn", func() int64 { return 99 })

	h := r.Histogram("janus_test_lbd")
	h.Observe(1)
	h.Observe(3)
	h.ObserveN(1000, 2)
	h.ObserveN(5, 0) // no-op

	s := r.Snapshot()
	if s.Get("janus_test_ops_total") != 5 || s.Get("janus_test_depth") != 5 || s.Get("janus_test_fn") != 99 {
		t.Fatalf("snapshot lookups wrong: %+v", s)
	}
	hs := s.Histograms["janus_test_lbd"]
	if hs.Count != 4 || hs.Sum != 1+3+2000 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
	var total int64
	for _, b := range hs.Buckets {
		total += b
	}
	if total != hs.Count {
		t.Fatalf("bucket sum %d != count %d", total, hs.Count)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1 << 30, histBuckets - 1}}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestSnapshotMonotoneConcurrent hammers one registry from many
// goroutines while a reader takes snapshots, asserting counter values
// never decrease between successive snapshots (run with -race).
func TestSnapshotMonotoneConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("janus_test_conflicts_total")
			h := r.Histogram("janus_test_lbd")
			for {
				select {
				case <-done:
					return
				default:
					c.Inc()
					h.Observe(3)
					r.Gauge("janus_test_live").Add(1)
				}
			}
		}()
	}
	var prev int64 = -1
	for i := 0; i < 200; i++ {
		s := r.Snapshot()
		v := s.Get("janus_test_conflicts_total")
		if v < prev {
			t.Fatalf("snapshot %d: counter went backwards %d -> %d", i, prev, v)
		}
		prev = v
	}
	close(done)
	wg.Wait()
}

func TestNilMetricsNoOp(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	var g *Gauge
	g.Set(1)
	g.Add(1)
	var h *Histogram
	h.Observe(1)
	h.ObserveN(2, 3)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
}

func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("janus_test_hits_total").Add(3)
	ln, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + ln.Addr().String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	if snap.Get("janus_test_hits_total") != 3 {
		t.Fatalf("/metrics snapshot = %+v", snap)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Fatal("/debug/vars missing memstats")
	}
	if len(get("/debug/pprof/cmdline")) == 0 {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

// TestHistogramSnapshotConcurrent hammers one histogram from many
// goroutines while a reader snapshots the registry, asserting every
// snapshot's count is monotone and the final snapshot is exact: count,
// sum, and buckets all agree with the observations made (run with -race).
func TestHistogramSnapshotConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("janus_test_ns")
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(int64(i%1000) << (w % 10))
			}
		}(w)
	}
	var prev int64 = -1
	for i := 0; i < 200; i++ {
		hs := r.Snapshot().Histograms["janus_test_ns"]
		if hs.Count < prev {
			t.Fatalf("snapshot %d: count went backwards %d -> %d", i, prev, hs.Count)
		}
		prev = hs.Count
	}
	wg.Wait()
	hs := r.Snapshot().Histograms["janus_test_ns"]
	if hs.Count != workers*perWorker {
		t.Fatalf("final count = %d, want %d", hs.Count, workers*perWorker)
	}
	var bsum int64
	for _, b := range hs.Buckets {
		bsum += b
	}
	if bsum != hs.Count {
		t.Fatalf("bucket sum %d != count %d", bsum, hs.Count)
	}
}
