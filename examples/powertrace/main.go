// Power trace: emit a raw on-board-sensor log for one program (the paper's
// Figure 1 view), show the idle/active/tail structure, and demonstrate how
// the K20Power analysis extracts active runtime and energy from it.
//
//	go run ./examples/powertrace
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/kepler"
	"repro/internal/report"
	"repro/internal/suites"
)

func main() {
	ctx := context.Background()
	p, err := suites.ByName("LBM")
	if err != nil {
		log.Fatal(err)
	}
	_, samples, m, err := core.Profile(ctx, p, "3000", kepler.Default, 42)
	if err != nil {
		log.Fatal(err)
	}

	report.Figure1(os.Stdout, samples, m)

	fmt.Println()
	fmt.Println("What you are seeing (paper section IV.C): the log starts at the")
	fmt.Println("~25 W driver idle level, ramps through the sensor's running-average")
	fmt.Println("response when the kernels start, plateaus while the GPU computes,")
	fmt.Println("and decays through the driver's tail level after the last kernel.")
	fmt.Println("Only samples above the dynamically chosen threshold count as active")
	fmt.Println("runtime; the energy is the integral of the compensated samples over")
	fmt.Println("that region.")
}
