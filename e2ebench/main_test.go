package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"

	"repro/internal/tuple"
)

// spec is the part of ../BENCHMARK.json the smoke runs check against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func byName(t *testing.T, name string) *workload {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return nil
}

// TestSmoke runs every workload for one second, untraced and traced, and
// checks that each run prints every metric with its unit, stays correct,
// and (on the lossless lanes) fails nothing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline")
	}
	sp := loadSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for _, ws := range sp.Workloads {
		w := byName(t, ws.Name)
		for _, traced := range []bool{false, true} {
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			res, err := run(w, input{seed: 7}, 1, traced, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed < 0 || res.Failed > res.Attempted {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if !w.udp && res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed on a lossless lane", w.name, traced, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: no metric %s", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestInputDeterministic checks that a seed fixes the generated input
// byte for byte, and that another seed changes it.
func TestInputDeterministic(t *testing.T) {
	const n = 1 << 16
	a, b := input{seed: 42}.inputChecksum(n), input{seed: 42}.inputChecksum(n)
	if a != b {
		t.Fatalf("seed 42 generated two inputs: %x vs %x", a, b)
	}
	if c := (input{seed: 43}).inputChecksum(n); c == a {
		t.Fatalf("seeds 42 and 43 generated the same input %x", a)
	}
}

// TestLocate checks the generator's inversion: every generated tuple
// locates to its own index, and one flipped value or stamp bit does not.
func TestLocate(t *testing.T) {
	in := input{seed: 5}
	for i := int64(0); i < 4096; i++ {
		for _, hist := range []bool{false, true} {
			tu := in.live(i)
			if hist {
				tu = in.hist(i)
			}
			idx, h, ok := in.locate(tu)
			if !ok || idx != i || h != hist {
				t.Fatalf("locate(%v) = %d,%v,%v; want %d,%v,true", tu, idx, h, ok, i, hist)
			}
			bad := tu
			bad.Value = math.Float64frombits(math.Float64bits(tu.Value) ^ 1)
			if _, _, ok := in.locate(bad); ok {
				t.Fatalf("locate accepted a corrupted value %v", bad)
			}
			bad = tu
			bad.Time ^= 1
			if _, _, ok := in.locate(bad); ok {
				t.Fatalf("locate accepted a corrupted stamp %v", bad)
			}
		}
	}
}

// TestParseJSONBatch round-trips the gateway's JSON batch encoding.
func TestParseJSONBatch(t *testing.T) {
	in := input{seed: 9}
	var batch []tuple.Tuple
	for i := int64(0); i < 100; i++ {
		batch = append(batch, in.live(i))
	}
	batch = append(batch, tuple.Tuple{Time: -3, Value: 0.25, Name: "x"})
	got, ok := parseJSONBatch(tuple.AppendJSONBatch(nil, batch), nil, map[string]string{})
	if !ok || len(got) != len(batch) {
		t.Fatalf("parsed %d tuples ok=%v, want %d", len(got), ok, len(batch))
	}
	for i := range got {
		if got[i] != batch[i] {
			t.Fatalf("tuple %d: %v, want %v", i, got[i], batch[i])
		}
	}
	if _, ok := parseJSONBatch([]byte(`[[1,2,"a\"b"]]`), nil, map[string]string{}); ok {
		t.Fatal("accepted an escaped name")
	}
}
