package procgraph

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestSystemJSONRoundTrip encodes representative systems and checks the
// decoded system preserves structure, speeds, and the link model.
func TestSystemJSONRoundTrip(t *testing.T) {
	hetero, err := New("hetero", 3, [][2]int{{0, 1}, {1, 2}}, Config{
		Speeds: []float64{1, 2, 0.5},
		Link:   LinkUniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*System{Ring(5), Mesh(2, 3), Torus(2, 4), Hypercube(3), Star(4), hetero} {
		data, err := json.Marshal(sys)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		got, err := FromJSON(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", sys.Name(), err)
		}
		if got.NumProcs() != sys.NumProcs() || got.Link() != sys.Link() {
			t.Fatalf("%s: round trip lost shape: %v vs %v", sys.Name(), got, sys)
		}
		for i := 0; i < sys.NumProcs(); i++ {
			if got.Speed(i) != sys.Speed(i) {
				t.Fatalf("%s: PE %d speed %v != %v", sys.Name(), i, got.Speed(i), sys.Speed(i))
			}
			for j := 0; j < sys.NumProcs(); j++ {
				if got.Dist(i, j) != sys.Dist(i, j) {
					t.Fatalf("%s: dist(%d,%d) %d != %d", sys.Name(), i, j, got.Dist(i, j), sys.Dist(i, j))
				}
			}
		}
	}
}

// TestFromJSONRejectsInvalid checks decode failures surface as errors, not
// panics: disconnected systems, bad link models, bad speeds.
func TestFromJSONRejectsInvalid(t *testing.T) {
	for name, body := range map[string]string{
		"disconnected": `{"procs": 3, "links": [[0,1]]}`,
		"bad link":     `{"procs": 2, "links": [[0,1]], "link": "warp"}`,
		"bad speeds":   `{"procs": 2, "links": [[0,1]], "speeds": [1]}`,
		"no procs":     `{"procs": 0, "links": []}`,
		"not json":     `{"procs": `,
	} {
		if _, err := FromJSON([]byte(body)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestParseSpec covers every topology keyword plus the failure modes the
// CLI and the daemon's submit endpoint rely on.
func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec  string
		procs int
	}{
		{"complete:4", 4},
		{"ring:5", 5},
		{"chain:3", 3},
		{"star:4", 4},
		{"mesh:2x3", 6},
		{"torus:2x4", 8},
		{"hypercube:3", 8},
		{"", 7}, // default complete:defaultProcs
	}
	for _, tc := range cases {
		sys, err := ParseSpec(tc.spec, 7)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		if sys.NumProcs() != tc.procs {
			t.Errorf("ParseSpec(%q) = %d procs, want %d", tc.spec, sys.NumProcs(), tc.procs)
		}
	}
	for _, bad := range []string{"klein:3", "ring:0", "ring:x", "mesh:4", "mesh:2xy", "torus:2"} {
		if _, err := ParseSpec(bad, 4); err == nil {
			t.Errorf("ParseSpec(%q) succeeded", bad)
		}
	}
}

// TestParseSpecMaxProcs: the largest admitted systems parse, and every spec
// beyond MaxProcs is an error rather than a panic or a huge allocation —
// including hypercube dimensions whose 1<<dim wraps and mesh sizes whose
// rows*cols overflows int.
func TestParseSpecMaxProcs(t *testing.T) {
	for _, spec := range []string{"hypercube:10", "mesh:32x32", "ring:1024"} {
		sys, err := ParseSpec(spec, 4)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", spec, err)
		} else if sys.NumProcs() != MaxProcs {
			t.Errorf("ParseSpec(%q) = %d procs, want %d", spec, sys.NumProcs(), MaxProcs)
		}
	}
	for _, bad := range []string{
		"hypercube:11", "hypercube:63", "hypercube:64", "hypercube:1000",
		"complete:1025", "complete:1000000000", "ring:2000", "chain:9999999999", "star:1025",
		"mesh:33x32", "torus:32x33", "mesh:4294967296x4294967296", "torus:1x1000000",
	} {
		if _, err := ParseSpec(bad, 4); err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxProcs)) {
			t.Errorf("ParseSpec(%q): err %v, want one naming the %d-PE limit", bad, err, MaxProcs)
		}
	}
	if _, err := ParseSpec("", MaxProcs+1); err == nil {
		t.Errorf("ParseSpec(\"\", %d) succeeded", MaxProcs+1)
	}
	if _, err := FromJSON([]byte(`{"procs": 1000000000, "links": []}`)); err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxProcs)) {
		t.Errorf("FromJSON with 1e9 procs: err %v, want one naming the %d-PE limit", err, MaxProcs)
	}
}
