package report

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kepler"
	"repro/internal/power"
	"repro/internal/sim"
)

// attribRow builds one real attribution row from a small mixed kernel.
func attribRow() core.ProgramAttribution {
	g := sim.NewGPU(kepler.K20cDevice())
	a := g.NewArray(1<<16, 4)
	l := g.Launch("mixedK", 64, 256, func(c *sim.Ctx) {
		c.FP32Ops(200)
		c.Load(a.At(c.TID()), 4)
	})
	g.Repeat(l, 100)
	d, err := g.Trace().Replay(kepler.Default)
	if err != nil {
		panic(err)
	}
	return core.ProgramAttribution{
		Program:     "TOY",
		Input:       "default",
		Attribution: power.Attribute(d),
	}
}

func TestAttributionRender(t *testing.T) {
	row := attribRow()
	var b strings.Builder
	Attribution(&b, []core.ProgramAttribution{row})
	out := b.String()
	for _, want := range []string{
		"Instruction-level energy attribution",
		"TOY/default @ " + kepler.Default.Name,
		"mixedK",
		"fp32",
		"dram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// The class bar is fixed-width and drawn only with class glyphs.
	var bar string
	for _, line := range strings.Split(out, "\n") {
		s := strings.TrimSpace(line)
		if strings.HasPrefix(s, "[") && strings.HasSuffix(s, "]") {
			bar = strings.Trim(s, "[]")
			break
		}
	}
	if len(bar) != 56 {
		t.Fatalf("class bar is %d cells, want 56: %q", len(bar), bar)
	}
	for i := 0; i < len(bar); i++ {
		ok := false
		for _, g := range classGlyphs {
			if bar[i] == g {
				ok = true
			}
		}
		if !ok {
			t.Errorf("bar cell %d is %q, not a class glyph", i, bar[i])
		}
	}
}

func TestClassBarDegenerate(t *testing.T) {
	if got := classBar(power.ClassVec{}, 8); got != strings.Repeat(".", 8) {
		t.Errorf("zero vector bar = %q, want dots", got)
	}
	var v power.ClassVec
	v[power.ClassFP32] = 1
	if got := classBar(v, 8); got != strings.Repeat("3", 8) {
		t.Errorf("pure-fp32 bar = %q, want all '3'", got)
	}
	if got := classMix(power.ClassVec{}); got != "no dynamic energy" {
		t.Errorf("zero vector mix = %q", got)
	}
}

func TestAttributionJSONRoundTrip(t *testing.T) {
	row := attribRow()
	var b strings.Builder
	if err := AttributionJSON(&b, []core.ProgramAttribution{row}); err != nil {
		t.Fatal(err)
	}
	var back []core.ProgramAttribution
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Program != "TOY" {
		t.Fatalf("round trip lost the row: %+v", back)
	}
	if back[0].Attribution.DynamicJ != row.Attribution.DynamicJ {
		t.Errorf("DynamicJ changed across JSON: %v vs %v",
			back[0].Attribution.DynamicJ, row.Attribution.DynamicJ)
	}
	if back[0].Attribution.Classes != row.Attribution.Classes {
		t.Errorf("class vector changed across JSON")
	}
}
