package service

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"github.com/lattice-tools/janus/internal/lattice"
)

// FuzzDiskEntry checks the disk tier's read path, which trusts nothing
// on disk: any bytes stored as a request's disk entry either miss, and
// the entry is dropped, or are served as an answer whose lattice
// realizes the request's cover. The lattice is checked here by a flood
// of its own over the wire cells, not by the server's verifier. The
// seeds are a good entry, a torn one, a lattice with an unknown literal
// and a lattice of the wrong shape.
func FuzzDiskEntry(f *testing.F) {
	p, err := parseRequest(fig1Request())
	if err != nil {
		f.Fatal(err)
	}
	entry := func(edit func(*ResultJSON)) []byte {
		r := renderResult(fakeResult(), p.names)
		edit(r)
		data, err := json.Marshal(&outcome{Status: StatusDone, Result: r})
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	good := entry(func(*ResultJSON) {})
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(entry(func(r *ResultJSON) { r.Lattice[0][0] = "z" }))
	f.Add(entry(func(r *ResultJSON) { r.Lattice[1] = r.Lattice[1][:1] }))

	s, err := NewServer(Config{Workers: 1, CacheDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	literal := map[string]func(point uint64) bool{
		"0": func(uint64) bool { return false },
		"1": func(uint64) bool { return true },
	}
	for v := 0; v < p.cover.N; v++ {
		bit := uint64(1) << v
		literal[lattice.Entry{Kind: lattice.PosVar, Var: v}.Format(p.names)] = func(x uint64) bool { return x&bit != 0 }
		literal[lattice.Entry{Kind: lattice.NegVar, Var: v}.Format(p.names)] = func(x uint64) bool { return x&bit == 0 }
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s.mem = newMemCache(1)
		s.disk.put(p.key, &outcome{Status: StatusDone}) // index the key
		if err := os.WriteFile(s.disk.path(p.key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		out, where, ok := s.cached(p.key, p.realizes)
		if !ok {
			if _, kept := s.disk.items[p.key]; kept {
				t.Fatal("a missed entry stays indexed")
			}
			if _, err := os.Stat(s.disk.path(p.key)); !os.IsNotExist(err) {
				t.Fatalf("a missed entry stays on disk (stat: %v)", err)
			}
			return
		}
		defer s.disk.drop(p.key)
		if where != "disk" || out.Result == nil {
			t.Fatalf("served from %q with result %v", where, out.Result)
		}
		r := out.Result
		if r.M < 1 || r.N < 1 || len(r.Lattice) != r.M {
			t.Fatalf("served a %dx%d lattice with %d rows", r.M, r.N, len(r.Lattice))
		}
		for _, row := range r.Lattice {
			if len(row) != r.N {
				t.Fatalf("served a %dx%d lattice with a row of %d cells", r.M, r.N, len(row))
			}
			for _, c := range row {
				if literal[c] == nil {
					t.Fatalf("served a lattice with the unknown literal %q", c)
				}
			}
		}
		for x := uint64(0); x < 1<<p.cover.N; x++ {
			if got, want := connects(r.Lattice, literal, x), p.cover.Eval(x); got != want {
				t.Fatalf("served lattice %v computes %v at %04b, the cover %v", r.Lattice, got, x, want)
			}
		}
	})
}

// connects reports whether the switches on at point x join the top row
// to the bottom row through 4-connected neighbours.
func connects(cells [][]string, literal map[string]func(uint64) bool, x uint64) bool {
	m, n := len(cells), len(cells[0])
	seen := make([]bool, m*n)
	var stack []int
	for c := 0; c < n; c++ {
		if literal[cells[0][c]](x) {
			seen[c] = true
			stack = append(stack, c)
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		r, c := i/n, i%n
		if r == m-1 {
			return true
		}
		for _, d := range [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
			rr, cc := r+d[0], c+d[1]
			if rr < 0 || rr >= m || cc < 0 || cc >= n || seen[rr*n+cc] || !literal[cells[rr][cc]](x) {
				continue
			}
			seen[rr*n+cc] = true
			stack = append(stack, rr*n+cc)
		}
	}
	return false
}
