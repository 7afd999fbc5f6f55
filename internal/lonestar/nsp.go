package lonestar

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// NSP is LonestarGPU's survey propagation: a heuristic SAT solver that
// passes "survey" messages over the factor graph of a random k-SAT formula
// (clauses on one side, variables on the other), then decimates the most
// biased variables and repeats. Message updates gather from irregular
// adjacency lists — a classic irregular workload with floating-point heavy
// inner loops.
type NSP struct{ core.Meta }

// NewNSP constructs the survey-propagation benchmark.
func NewNSP() *NSP {
	return &NSP{core.Meta{
		ProgName:    "NSP",
		ProgSuite:   core.SuiteLonestar,
		Desc:        "survey propagation SAT heuristic on a factor graph",
		Kernels:     3,
		InputNames:  []string{"16800-4000-3", "42k-10k-3", "42k-10k-5"},
		Default:     "42k-10k-3",
		IsIrregular: true,
	}}
}

// nspInput returns clauses, variables, literals-per-clause and the
// real/simulated ratio.
func nspInput(input string) (nc, nv, k int, ratio float64, err error) {
	switch input {
	case "16800-4000-3":
		return 3500, 1000, 3, 4.8, nil
	case "42k-10k-3":
		return 8750, 2500, 3, 4.8, nil
	case "42k-10k-5":
		return 10500, 2500, 5, 4, nil
	}
	return 0, 0, 0, 0, fmt.Errorf("NSP: unknown input %q", input)
}

type nspFormula struct {
	nc, nv, k int
	lits      [][]int32 // per clause: variable ids
	neg       [][]bool  // per clause: is the literal negated
	// occurrence lists: clauses per variable with the sign
	occ [][]int32
	// slot[v][i] is v's literal index within clause occ[v][i], so message
	// lookups need no per-clause search.
	slot [][]int32
}

func nspGenerate(nc, nv, k int, seed uint64) *nspFormula {
	rng := xrand.New(seed)
	f := &nspFormula{nc: nc, nv: nv, k: k}
	f.lits = make([][]int32, nc)
	f.neg = make([][]bool, nc)
	f.occ = make([][]int32, nv)
	f.slot = make([][]int32, nv)
	for a := 0; a < nc; a++ {
		seen := map[int32]bool{}
		for len(f.lits[a]) < k {
			v := int32(rng.Intn(nv))
			if seen[v] {
				continue
			}
			seen[v] = true
			f.lits[a] = append(f.lits[a], v)
			f.neg[a] = append(f.neg[a], rng.Float64() < 0.5)
			f.occ[v] = append(f.occ[v], int32(a))
			f.slot[v] = append(f.slot[v], int32(len(f.lits[a])-1))
		}
	}
	return f
}

const (
	nspMaxIters = 220
	nspTol      = 5e-3
	nspDamp     = 0.5  // damped updates stabilize SP near the SAT threshold
	nspRounds   = 4    // decimation rounds
	nspFrac     = 0.03 // fraction of variables fixed per round
)

// Run performs survey propagation with decimation and validates message
// convergence, bounds, and that the decimated assignment (greedily
// completed) satisfies nearly all clauses.
func (p *NSP) Run(ctx context.Context, dev *sim.GPU, input string) error {
	nc, nv, k, ratio, err := nspInput(input)
	if err != nil {
		return err
	}
	// The clause ratio covers per-sweep work; the real solver's SP sweeps
	// at the SAT threshold are far more numerous than the simulated ones.
	dev.SetTimeScale(ratio * 600)

	f := nspGenerate(nc, nv, k, xrand.HashString("nsp-"+input))
	rng := xrand.New(0x5195 ^ uint64(nc))

	// eta[a][i]: survey from clause a to its i-th literal.
	eta := make([][]float64, nc)
	for a := range eta {
		eta[a] = make([]float64, k)
		for i := range eta[a] {
			eta[a][i] = rng.Float64() * 0.5
		}
	}

	dEta := dev.NewArray(nc*k, 8)
	dOcc := dev.NewArray(nc*k, 4)
	dBias := dev.NewArray(nv, 8)

	fixed := make([]bool, nv)
	assign := make([]bool, nv) // variable -> value

	// etaInto computes the product terms for variable v excluding clause
	// excl, respecting decimation (fixed variables force their clauses).
	prodTerms := func(v int32, excl int32, signNeg bool) (pu, ps, p0 float64) {
		pu, ps, p0 = 1, 1, 1
		slots := f.slot[v]
		for oi, b := range f.occ[v] {
			if b == excl {
				continue
			}
			s := slots[oi]
			e := eta[b][s]
			bn := f.neg[b][s]
			if bn == signNeg {
				ps *= 1 - e
			} else {
				pu *= 1 - e
			}
			p0 *= 1 - e
		}
		return
	}

	var residual float64
	for round := 0; round < nspRounds; round++ {
		// Kernel 1 (iterated): survey updates until convergence.
		iters := 0
		for ; iters < nspMaxIters; iters++ {
			residual = 0
			// Ordered: Gauss-Seidel sweeps read surveys other blocks are
			// writing, and every block updates the shared residual.
			dev.LaunchOrdered("update_eta", (nc+127)/128, 128, func(c *sim.Ctx) {
				a := c.TID()
				if a >= nc {
					return
				}
				c.LoadRep(dEta.At(a*k), 8, k)
				work := 0
				for i := 0; i < k; i++ {
					vi := f.lits[a][i]
					if fixed[vi] {
						continue
					}
					prod := 1.0
					for j := 0; j < k; j++ {
						if j == i {
							continue
						}
						vj := f.lits[a][j]
						if fixed[vj] {
							// A fixed literal that satisfies the clause
							// kills the survey.
							if assign[vj] != f.neg[a][j] {
								prod = 0
								continue
							}
							continue
						}
						pu, ps, p0 := prodTerms(vj, int32(a), f.neg[a][j])
						work += len(f.occ[vj])
						piU := (1 - pu) * ps
						piS := (1 - ps) * pu
						pi0 := p0
						den := piU + piS + pi0
						if den <= 0 {
							prod = 0
							continue
						}
						prod *= piU / den
					}
					prod = nspDamp*eta[a][i] + (1-nspDamp)*prod
					d := math.Abs(eta[a][i] - prod)
					if d > residual {
						residual = d
					}
					eta[a][i] = prod
				}
				c.Load(dOcc.At(a%nc), 4)
				c.FP64Ops(10*work + 8*k)
				c.IntOps(4*work + 6*k)
				c.StoreRep(dEta.At(a*k), 8, k)
			})
			if residual < nspTol {
				break
			}
		}
		if round == 0 && residual >= nspTol*20 {
			// Round 0 must converge cleanly; after decimation, real SP
			// implementations tolerate residual surveys and hand the rest
			// to the local-search cleanup.
			return core.Validatef(p.Name(), "surveys did not converge (residual %g)", residual)
		}

		// Kernel 2: compute variable biases.
		var biases []nspBias
		// Ordered: every block appends to the one shared candidate list.
		dev.LaunchOrdered("compute_bias", (nv+127)/128, 128, func(c *sim.Ctx) {
			v := c.TID()
			if v >= nv {
				return
			}
			if fixed[int32(v)] {
				c.IntOps(2)
				return
			}
			puP, psP, p0P := prodTerms(int32(v), -1, false)
			piPlus := (1 - puP) * psP
			piMinus := (1 - psP) * puP
			den := piPlus + piMinus + p0P
			if den <= 0 {
				c.IntOps(4)
				return
			}
			wPlus := piPlus / den
			wMinus := piMinus / den
			biases = append(biases, nspBias{int32(v), math.Abs(wPlus - wMinus), wPlus > wMinus})
			c.LoadRep(dEta.At(v%nc*k), 8, len(f.occ[v]))
			c.FP64Ops(8 * len(f.occ[v]))
			c.IntOps(3 * len(f.occ[v]))
			c.Store(dBias.At(v), 8)
		})

		// Kernel 3: decimation — fix the most biased variables.
		sortBias(biases)
		nFix := int(float64(nv) * nspFrac)
		if nFix > len(biases) {
			nFix = len(biases)
		}
		sel := biases[:nFix]
		// Ordered: decimation writes the shared fixed/assign maps.
		dev.LaunchOrdered("decimate", (len(sel)+255)/256, 256, func(c *sim.Ctx) {
			i := c.TID()
			if i >= len(sel) {
				return
			}
			b := sel[i]
			fixed[b.v] = true
			assign[b.v] = b.sign
			c.Load(dBias.At(int(b.v)), 8)
			c.IntOps(6)
			c.Store(dBias.At(int(b.v)), 8)
		})
	}

	// Validate: messages are probabilities.
	for a := 0; a < nc; a++ {
		for i := 0; i < k; i++ {
			if math.IsNaN(eta[a][i]) || eta[a][i] < -1e-12 || eta[a][i] > 1+1e-12 {
				return core.Validatef(p.Name(), "eta[%d][%d] = %g out of [0,1]", a, i, eta[a][i])
			}
		}
	}
	// Complete the assignment greedily (majority of unsatisfied clause
	// signs) and require almost all clauses satisfied.
	full := make([]bool, nv)
	for v := int32(0); int(v) < nv; v++ {
		if fixed[v] {
			full[v] = assign[v]
			continue
		}
		scorePos, scoreNeg := 0, 0
		for _, a := range f.occ[v] {
			for i, lv := range f.lits[a] {
				if lv != v {
					continue
				}
				if f.neg[a][i] {
					scoreNeg++
				} else {
					scorePos++
				}
			}
		}
		full[v] = scorePos >= scoreNeg
	}
	// Local repair (WalkSAT-style), as the real solver hands the decimated
	// formula to a local-search cleaner: greedily flip the variable with
	// the best make/break balance among unsatisfied clauses.
	nspRepair(f, full, 400, rng)
	sat := nspSatisfied(f, full)
	if float64(sat) < 0.9*float64(nc) {
		return core.Validatef(p.Name(), "only %d of %d clauses satisfied", sat, nc)
	}
	return nil
}

func nspSatisfied(f *nspFormula, assign []bool) int {
	sat := 0
	for a := 0; a < f.nc; a++ {
		ok := false
		for i, v := range f.lits[a] {
			val := assign[v]
			if f.neg[a][i] {
				val = !val
			}
			if val {
				ok = true
				break
			}
		}
		if ok {
			sat++
		}
	}
	return sat
}

// nspBias is one variable's decimation candidate entry.
type nspBias struct {
	v    int32
	mag  float64
	sign bool
}

// sortBias orders candidates by descending bias magnitude.
func sortBias(b []nspBias) {
	sort.Slice(b, func(i, j int) bool {
		if b[i].mag != b[j].mag {
			return b[i].mag > b[j].mag
		}
		return b[i].v < b[j].v
	})
}

// nspRepair runs a simple deterministic WalkSAT-style repair.
func nspRepair(f *nspFormula, assign []bool, maxFlips int, rng *xrand.RNG) {
	litTrue := func(a, i int) bool {
		v := f.lits[a][i]
		val := assign[v]
		if f.neg[a][i] {
			val = !val
		}
		return val
	}
	for flip := 0; flip < maxFlips; flip++ {
		// Collect unsatisfied clauses.
		var unsat []int
		for a := 0; a < f.nc; a++ {
			ok := false
			for i := range f.lits[a] {
				if litTrue(a, i) {
					ok = true
					break
				}
			}
			if !ok {
				unsat = append(unsat, a)
			}
		}
		if len(unsat) == 0 {
			return
		}
		// Pick an unsatisfied clause and flip its literal with the least
		// break count.
		a := unsat[rng.Intn(len(unsat))]
		bestV := int32(-1)
		bestBreak := 1 << 30
		for i := range f.lits[a] {
			v := f.lits[a][i]
			// Break count: clauses currently satisfied only by v's literal.
			breaks := 0
			for _, b := range f.occ[v] {
				trueCount := 0
				vTrue := false
				for j := range f.lits[b] {
					if litTrue(int(b), j) {
						trueCount++
						if f.lits[b][j] == v {
							vTrue = true
						}
					}
				}
				if trueCount == 1 && vTrue {
					breaks++
				}
			}
			if breaks < bestBreak {
				bestBreak = breaks
				bestV = v
			}
		}
		assign[bestV] = !assign[bestV]
	}
}
