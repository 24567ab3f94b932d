// Command skysr-gen generates a synthetic city dataset and writes it in
// the skysr text format.
//
// Usage:
//
//	skysr-gen -preset tokyo -scale 0.5 -seed 42 -out tokyo.skysr
//	skysr-gen -preset tokyo -time-profiles 0.5 -out tokyo-td.skysr
//	skysr-gen -preset osm -scale 4 -binary -out osm.skysrb
//
// -time-profiles attaches rush-hour travel-time profiles (two congestion
// peaks over a one-day period) to the given fraction of edges, making the
// dataset time-dependent: skysr-query -depart and the serve API's depart
// parameter then price every leg at its actual traversal time.
//
// -binary writes the mmap-ready binary format instead of text; a later
// Open maps it without parsing.
package main

import (
	"flag"
	"fmt"
	"os"

	"skysr"
)

func main() {
	preset := flag.String("preset", "tokyo", "dataset preset: tokyo, nyc, cal or osm")
	scale := flag.Float64("scale", 0.25, "size scale (1.0 ≈ 1:100 of the paper's datasets)")
	seed := flag.Int64("seed", 42, "generation seed")
	timeProfiles := flag.Float64("time-profiles", 0, "fraction of edges to wrap in rush-hour travel-time profiles (0 = static dataset)")
	binary := flag.Bool("binary", false, "write the mmap-ready binary format instead of text")
	out := flag.String("out", "", "output file (required)")
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "skysr-gen: -out is required")
		flag.Usage()
		os.Exit(2)
	}
	eng, err := skysr.Generate(*preset, *scale, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skysr-gen: %v\n", err)
		os.Exit(1)
	}
	if *timeProfiles > 0 {
		n, err := eng.AttachTimeProfiles(*timeProfiles, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skysr-gen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("attached rush-hour profiles to %d of %d edges (period %g)\n", n, eng.NumEdges(), eng.TimePeriod())
	}
	save := eng.Save
	if *binary {
		save = eng.SaveBinary
	}
	if err := save(*out); err != nil {
		fmt.Fprintf(os.Stderr, "skysr-gen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %s\n", *out, eng.Stats())
}
