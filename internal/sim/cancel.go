package sim

// launchCanceled is the panic payload a launch unwinds with when the
// GPU's context is canceled. Kernel functions do not thread errors out
// of simulated threads, so the engine aborts via panic at block boundaries
// and the measurement layer (core.Runner) recovers it back into the context
// error with CancelCause. A cancel lands between blocks, never inside one,
// so every block that completed did so bit-identically to an uncanceled
// run.
type launchCanceled struct{ err error }

// CancelCause reports whether a recovered panic value is a launch
// cancellation and, if so, returns the context error that caused it.
// Callers that invoke Program.Run on a GPU with a cancelable context
// must recover this panic:
//
//	defer func() {
//		if r := recover(); r != nil {
//			if cerr, ok := sim.CancelCause(r); ok {
//				err = cerr
//				return
//			}
//			panic(r)
//		}
//	}()
func CancelCause(r any) (error, bool) {
	lc, ok := r.(launchCanceled)
	if !ok {
		return nil, false
	}
	return lc.err, true
}

// checkCanceled aborts the current launch if the GPU's context has been
// canceled. It is called at block granularity by the launch loops.
func (g *GPU) checkCanceled() {
	if err := g.ctx.Err(); err != nil {
		panic(launchCanceled{err})
	}
}
