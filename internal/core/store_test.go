package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/k20power"
	"repro/internal/kepler"
	"repro/internal/sim"
)

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")

	r := NewRunner()
	p := computeBoundToy(4000)
	want, err := r.Measure(context.Background(), p, "default", kepler.Default)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SaveStore(path); err != nil {
		t.Fatal(err)
	}

	// A fresh runner seeded from the store must return the same numbers
	// WITHOUT running the program.
	calls := 0
	spy := &toyProgram{
		name:  p.Name(),
		suite: p.Suite(),
		run: func(dev *sim.GPU) error {
			calls++
			return nil
		},
	}
	r2 := NewRunner()
	if err := r2.LoadStore(path); err != nil {
		t.Fatal(err)
	}
	got, err := r2.Measure(context.Background(), spy, "default", kepler.Default)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("program ran %d times despite cached store", calls)
	}
	if got.ActiveTime != want.ActiveTime || got.Energy != want.Energy || got.AvgPower != want.AvgPower {
		t.Errorf("store round trip changed values: %+v vs %+v", got, want)
	}
	if len(got.Reps) != len(want.Reps) {
		t.Errorf("reps lost: %d vs %d", len(got.Reps), len(want.Reps))
	}
}

func TestStoreCachesInsufficiency(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")

	tiny := &toyProgram{
		name:  "toy-tiny-store",
		suite: SuiteSDK,
		run: func(dev *sim.GPU) error {
			dev.Launch("k", 16, 256, func(c *sim.Ctx) { c.FP32Ops(10) })
			return nil
		},
	}
	r := NewRunner()
	if _, err := r.Measure(context.Background(), tiny, "default", kepler.Default); err == nil {
		t.Fatal("expected insufficiency")
	}
	if err := r.SaveStore(path); err != nil {
		t.Fatal(err)
	}

	r2 := NewRunner()
	if err := r2.LoadStore(path); err != nil {
		t.Fatal(err)
	}
	calls := 0
	spy := &toyProgram{name: tiny.name, suite: tiny.suite, run: func(dev *sim.GPU) error {
		calls++
		dev.Launch("k", 16, 256, func(c *sim.Ctx) { c.FP32Ops(10) })
		return nil
	}}
	_, err := r2.Measure(context.Background(), spy, "default", kepler.Default)
	if err == nil || !IsInsufficient(err) {
		t.Fatalf("cached insufficiency not reproduced: %v", err)
	}
	if calls != 0 {
		t.Error("program re-ran despite cached insufficiency")
	}
}

func TestStoreRejectsWrongVersion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	if err := os.WriteFile(path, []byte(`{"version":999,"results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	if err := r.LoadStore(path); err == nil {
		t.Fatal("wrong-version store accepted")
	}
}

func TestStoreRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	if err := r.LoadStore(path); err == nil {
		t.Fatal("garbage store accepted")
	}
}

// TestKeyRoundTripHostileNames: names containing NUL, backslashes or
// nothing at all survive ImportResults -> SaveStore -> LoadStore -> Results
// unchanged, exclusions included.
func TestKeyRoundTripHostileNames(t *testing.T) {
	cases := [][4]string{
		{"N\x00B", "1m", "614", "K20c"},
		{"\x00", "\x00\x00", "a\\0b", `tricky\`},
		{`\`, `\\`, `\0`, "\x00\\\x00"},
		{"", "", "", ""},
	}
	var want []Result
	for i, c := range cases {
		rec := Result{Program: c[0], Input: c[1], Config: c[2], Board: c[3]}
		if i%2 == 0 {
			rec.ActiveTime, rec.Energy, rec.AvgPower = 1+float64(i), 2, 3
			rec.Reps = []k20power.Measurement{{ActiveTime: 1 + float64(i), Energy: 2, AvgPower: 3}}
		} else {
			rec.Insufficient = true
		}
		want = append(want, rec)
	}
	SortResults(want)

	r := NewRunner()
	if n := r.ImportResults(want); n != len(want) {
		t.Fatalf("imported %d of %d records", n, len(want))
	}
	path := filepath.Join(t.TempDir(), "store.json")
	if err := r.SaveStore(path); err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner()
	if err := r2.LoadStore(path); err != nil {
		t.Fatal(err)
	}
	if got := r2.Results(); !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed records:\n got %#v\nwant %#v", got, want)
	}
}

// TestSaveStoreConcurrentWithMeasure exercises SaveStore racing with
// in-flight Measure calls; run under -race it verifies that pending cache
// entries are never read before their once publishes them.
func TestSaveStoreConcurrentWithMeasure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")

	r := NewRunner()
	r.Repetitions = 1
	var progs []*toyProgram
	for i := 0; i < 8; i++ {
		progs = append(progs, computeBoundToy(3000+100*i))
		progs[i].name = fmt.Sprintf("toy-race-%d", i)
	}

	var wg sync.WaitGroup
	for _, p := range progs {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Measure(context.Background(), p, "default", kepler.Default); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.SaveStore(path); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	// A final save must persist every completed entry.
	if err := r.SaveStore(path); err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner()
	if err := r2.LoadStore(path); err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		spy := &toyProgram{name: p.name, suite: p.suite, run: func(dev *sim.GPU) error {
			t.Errorf("%s re-ran despite persisted store", p.name)
			return nil
		}}
		if _, err := r2.Measure(context.Background(), spy, "default", kepler.Default); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
	}
}

// LoadStore failure paths, driven by fixture files under testdata/.
func TestLoadStoreFailurePaths(t *testing.T) {
	cases := []struct {
		name, path string
	}{
		{"missing file", filepath.Join(t.TempDir(), "does-not-exist.json")},
		{"corrupt JSON", filepath.Join("testdata", "store_corrupt.json")},
		{"version mismatch", filepath.Join("testdata", "store_badversion.json")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewRunner()
			if err := r.LoadStore(c.path); err == nil {
				t.Fatalf("LoadStore(%s) accepted", c.path)
			}
			if len(r.results.entries) != 0 {
				t.Errorf("failed load left %d cache entries", len(r.results.entries))
			}
		})
	}
}
