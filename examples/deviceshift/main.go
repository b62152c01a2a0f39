// Device-to-device covariate shift (paper §5.6 / Table 4): templates are
// profiled on one golden device, but deployment measures different chips of
// the same model. Process variation shifts the traces; covariate shift
// adaptation (tight not-varying selection + per-trace normalization) keeps
// classification usable across devices.
//
//	go run ./examples/deviceshift
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	sidechannel "repro"
	"repro/internal/features"
	"repro/internal/ml"
)

func main() {
	pcfg := sidechannel.DefaultPowerConfig()
	classes := []sidechannel.Class{mustClass("ADC"), mustClass("AND")}

	// Profile ADC vs AND on the golden device (ID 0).
	golden, err := sidechannel.NewCampaign(pcfg, 0, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("profiling ADC vs AND on the golden device...")
	train, err := golden.CollectClasses(classes, 10, 30)
	if err != nil {
		log.Fatal(err)
	}

	for _, csa := range []bool{false, true} {
		pc := features.CSAPipelineConfig()
		if !csa {
			pc = features.DefaultPipelineConfig()
		}
		pc.NumComponents = 3
		pipe, X, err := features.FitPipelineCtx(context.Background(), train.Traces, train.Labels, train.Programs, 2, pc)
		if err != nil {
			log.Fatal(err)
		}
		clf := ml.NewQDA()
		if err := clf.Fit(X, train.Labels); err != nil {
			log.Fatal(err)
		}

		fmt.Printf("\ncovariate shift adaptation: %v\n", csa)
		for dev := 1; dev <= 5; dev++ {
			camp, err := sidechannel.NewCampaign(pcfg, dev, 42+uint64(dev))
			if err != nil {
				log.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(dev)))
			env := sidechannel.NewFieldProgramEnv(pcfg, uint64(dev)*99, 100, 5)
			hit, total := 0, 0
			for li, cl := range classes {
				targets := make([]sidechannel.Instruction, 60)
				for i := range targets {
					targets[i] = sidechannel.RandomInstruction(rng, cl)
				}
				traces, err := camp.AcquireTemplated(rng, env, targets)
				if err != nil {
					log.Fatal(err)
				}
				for _, tr := range traces {
					f, err := pipe.Extract(tr)
					if err != nil {
						log.Fatal(err)
					}
					p, err := clf.Predict(f)
					if err != nil {
						log.Fatal(err)
					}
					total++
					if p == li {
						hit++
					}
				}
			}
			fmt.Printf("  device %d: SR %.1f%%\n", dev, 100*float64(hit)/float64(total))
		}
	}
	fmt.Println("\npaper (Table 4, after CSA): QDA 89.3 / 91.5 / 88.9 / 92.3 / 94.5 %")
}

func mustClass(name string) sidechannel.Class {
	for _, c := range sidechannel.AllClasses() {
		if c.Name() == name {
			return c
		}
	}
	log.Fatalf("class %q not found", name)
	return 0
}
