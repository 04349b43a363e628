package service

import "testing"

// TestFnKeyGolden pins the budget-free function key to exact digests.
// The fnKey is load-bearing far beyond this process: a sharding front
// hashes it to pick a key's owning backend, the peer cache-fill
// protocol compares it across daemons, and disk caches survive
// restarts. If this test breaks, the canonical form changed — that is a
// cross-version wire/cache compatibility break, not a refactor detail:
// a mixed fleet would route the same function to different shards and
// every persisted cache entry would silently miss. Change the digests
// only with a deliberate migration story.
func TestFnKeyGolden(t *testing.T) {
	base := ".i 3\n.o 1\n110 1\n0-1 1\n.e\n"
	const baseKey = "a0e1440f0f22f501b1ab5e9c11a03ad09d04356688399f74e992c04746347501"
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"base", Request{PLA: base}, baseKey},
		// Cube order is spelling, not identity.
		{"permuted cubes", Request{PLA: ".i 3\n.o 1\n0-1 1\n110 1\n.e\n"}, baseKey},
		// A repeated cube denotes the same function.
		{"duplicate cube", Request{PLA: ".i 3\n.o 1\n110 1\n110 1\n0-1 1\n.e\n"}, baseKey},
		// Budgets shape how long we look, not what we ask — fn identity
		// must ignore them (that is what makes the key routable).
		{"budget-free", Request{PLA: base, TimeoutMS: 1234, MaxConflicts: 99}, baseKey},
		{"and4 nor4", Request{PLA: ".i 4\n.o 1\n1111 1\n0000 1\n.e\n"},
			"6eac55735c6092002e2d25b33bbd81c65300e2f13888d1196e24a589ac4589c7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := FnKeyOf(tc.req)
			if err != nil {
				t.Fatalf("FnKeyOf: %v", err)
			}
			if got != tc.want {
				t.Fatalf("fnKey drifted:\n got  %s\n want %s\n"+
					"this changes shard routing and invalidates persisted caches", got, tc.want)
			}
		})
	}
}
