// Command pmf computes free energy profiles from SMD work logs: it reads
// one or more spice-worklog files, groups them by (κ, v) protocol, and
// prints the Jarzynski PMF with bootstrap errors for each group — the
// standalone analysis step of the SPICE pipeline, runnable wherever the
// logs land after a grid campaign.
//
// Usage:
//
//	pmf [-temp 300] [-estimator cumulant2] [-resamples 200] log1 log2 ...
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"spice/internal/jarzynski"
	"spice/internal/trace"
	"spice/internal/xrand"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pmf: ")
	var (
		temp      = flag.Float64("temp", 300, "temperature, K")
		estimator = flag.String("estimator", "cumulant2", "exponential|cumulant1|cumulant2")
		resamples = flag.Int("resamples", 200, "bootstrap resamples")
		seed      = flag.Uint64("seed", 1, "bootstrap seed")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		log.Fatal("no work logs given")
	}
	est, err := jarzynski.ParseEstimator(*estimator)
	if err != nil {
		log.Fatal(err)
	}

	type protoKey struct{ kappa, velocity float64 }
	groups := make(map[protoKey][]*trace.WorkLog)
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		wl, err := trace.ReadWorkLog(f)
		f.Close()
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		k := protoKey{wl.Kappa, wl.Velocity}
		groups[k] = append(groups[k], wl)
	}

	keys := make([]protoKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kappa != keys[j].kappa {
			return keys[i].kappa < keys[j].kappa
		}
		return keys[i].velocity < keys[j].velocity
	})

	rng := xrand.New(*seed)
	for _, k := range keys {
		logs := groups[k]
		ens, err := jarzynski.NewEnsemble(*temp, logs)
		if err != nil {
			log.Fatalf("protocol κ=%g v=%g: %v", k.kappa, k.velocity, err)
		}
		pmf, err := ens.PMF(est)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("# κ=%g kcal/mol/Å² v=%g Å/ps, %d trajectories, estimator %v\n",
			k.kappa, k.velocity, ens.N(), est)
		if ens.N() >= 2 {
			sig, err := ens.StatError(est, *resamples, rng)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%10s %14s %12s\n", "z(Å)", "Φ(kcal/mol)", "σ_stat")
			for i := range ens.Grid {
				fmt.Printf("%10.3f %14.5f %12.5f\n", ens.Grid[i], pmf[i], sig[i])
			}
		} else {
			fmt.Printf("%10s %14s\n", "z(Å)", "Φ(kcal/mol)")
			for i := range ens.Grid {
				fmt.Printf("%10.3f %14.5f\n", ens.Grid[i], pmf[i])
			}
		}
		fmt.Println()
	}
}
