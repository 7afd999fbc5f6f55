// Package core is the characterization framework — the paper's methodology
// as a library. It defines the Program abstraction the 34 benchmarks
// implement, the Runner that measures a program's active runtime, energy
// and average power through the full simulated measurement stack (device →
// power model → on-board sensor → K20Power analysis), and the experiment
// drivers that regenerate every table and figure of the paper.
package core

import (
	"context"
	"fmt"

	"repro/internal/sim"
)

// Suite names one of the five benchmark suites.
type Suite string

// The five suites, in the paper's presentation order.
const (
	SuiteSDK      Suite = "CUDA SDK"
	SuiteLonestar Suite = "LonestarGPU"
	SuiteParboil  Suite = "Parboil"
	SuiteRodinia  Suite = "Rodinia"
	SuiteSHOC     Suite = "SHOC"
)

// SuiteMicro is the energy-calibration microbenchmark suite (not one of
// the paper's five; its programs are additive and never join the 34-program
// battery or its golden corpus).
const SuiteMicro Suite = "Microbench"

// Suites lists the paper's suites in presentation order (the calibration
// microbenchmarks are deliberately excluded).
var Suites = []Suite{SuiteSDK, SuiteLonestar, SuiteParboil, SuiteRodinia, SuiteSHOC}

// Program is one benchmark application. Implementations perform the real
// computation of the original CUDA code (self-validating their results) on
// a simulated GPU, launching one simulated kernel per CUDA kernel.
//
// Run must be self-contained and reentrant: it builds its own input data
// (deterministically, from the input name) and may be called concurrently
// on different GPUs.
//
// The GPU a program runs on is clock-free (see sim.GPU): it records the
// run's launch trace and exposes no simulated time, so a run cannot depend
// on the clock configuration. The pipeline runs a program once per (input,
// device) and prices the trace at each configuration by replay.
//
// The context carries cancellation only — it never influences the
// computation, so a completed Run is bit-identical for any ctx. Programs
// need not poll it themselves: the GPU checks it at block granularity
// inside every launch (see sim.GPU.SetContext), which callers arrange
// before invoking Run. Long host-side phases may additionally honor ctx.
type Program interface {
	// Name is the program's short name as used in the paper (e.g. "BH").
	Name() string
	// Suite is the benchmark suite the program belongs to.
	Suite() Suite
	// Description is a one-line summary.
	Description() string
	// KernelCount is the number of distinct global kernels (Table 1's #K).
	KernelCount() int
	// Inputs lists the available input names ordered small to large.
	Inputs() []string
	// DefaultInput is the input used when an experiment needs just one.
	DefaultInput() string
	// Irregular reports whether the program has data-dependent control flow
	// and memory-access behaviour (the paper's regular/irregular split).
	Irregular() bool
	// Run executes the program with the named input on the GPU.
	Run(ctx context.Context, dev *sim.GPU, input string) error
}

// RunProgram invokes p.Run with the context attached to the GPU and
// converts a launch-cancellation unwind (see sim.CancelCause) back into the
// context's error. Every direct Run call in the pipeline goes through it so
// cancellation surfaces as a regular error, not a panic. The run's launch
// trace is then dev.Trace().
func RunProgram(ctx context.Context, p Program, dev *sim.GPU, input string) (err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() {
		if r := recover(); r != nil {
			if cerr, ok := sim.CancelCause(r); ok {
				err = cerr
				return
			}
			panic(r)
		}
	}()
	dev.SetContext(ctx)
	return p.Run(ctx, dev, input)
}

// Meta implements the descriptive half of Program; benchmark types embed it
// and add Run.
type Meta struct {
	ProgName    string
	ProgSuite   Suite
	Desc        string
	Kernels     int
	InputNames  []string
	Default     string
	IsIrregular bool
}

// Name returns the program's short name.
func (m Meta) Name() string { return m.ProgName }

// Suite returns the benchmark suite.
func (m Meta) Suite() Suite { return m.ProgSuite }

// Description returns the one-line summary.
func (m Meta) Description() string { return m.Desc }

// KernelCount returns the number of distinct global kernels.
func (m Meta) KernelCount() int { return m.Kernels }

// Inputs returns the input names, small to large.
func (m Meta) Inputs() []string { return m.InputNames }

// DefaultInput returns the input used when only one is needed.
func (m Meta) DefaultInput() string { return m.Default }

// Irregular reports data-dependent behaviour.
func (m Meta) Irregular() bool { return m.IsIrregular }

// CheckInput returns an error unless input is one of the declared inputs.
func (m Meta) CheckInput(input string) error {
	for _, in := range m.InputNames {
		if in == input {
			return nil
		}
	}
	return fmt.Errorf("%s: unknown input %q (have %v)", m.ProgName, input, m.InputNames)
}

// Variant is implemented by programs that are alternate implementations of
// a base algorithm (e.g. L-BFS "atomic" and "wla", SSSP "wlc" and "wln").
type Variant interface {
	Program
	// BaseName is the name of the default implementation this varies.
	BaseName() string
	// VariantName is the implementation label ("atomic", "wla", ...).
	VariantName() string
}

// ItemCounts is implemented by graph programs that can report how many
// items they processed, enabling the paper's per-100k-vertices/edges
// comparison (Table 4).
type ItemCounts interface {
	// Items returns the number of processed vertices and edges for the
	// given input.
	Items(input string) (vertices, edges int64)
}

// ValidationError reports a self-check failure of a benchmark.
type ValidationError struct {
	Program string
	Detail  string
}

// Error implements the error interface.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("%s: output validation failed: %s", e.Program, e.Detail)
}

// Validatef builds a ValidationError.
func Validatef(program, format string, args ...any) error {
	return &ValidationError{Program: program, Detail: fmt.Sprintf(format, args...)}
}
