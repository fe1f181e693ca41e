// Command icache-gen materializes a synthetic dataset into a packed file
// that icache-server can serve with -dataset-file: the deployment where
// training data lives on disk rather than being generated on demand.
//
// Usage:
//
//	icache-gen -dataset cifar10 -out /data/cifar10.pack
//	icache-server -dataset cifar10 -dataset-file /data/cifar10.pack
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"icache/internal/dataset"
	"icache/internal/storage"
)

func main() {
	var (
		dsName = flag.String("dataset", "cifar10", "dataset: cifar10, imagenet, imagenet-10pct")
		out    = flag.String("out", "", "output file path (required)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "usage: icache-gen -dataset cifar10 -out path.pack")
		os.Exit(2)
	}
	spec, err := dataset.ByName(*dsName)
	if err != nil {
		log.Fatalf("icache-gen: %v", err)
	}
	start := time.Now()
	if err := storage.WriteDatasetFile(*out, spec); err != nil {
		log.Fatalf("icache-gen: %v", err)
	}
	info, err := os.Stat(*out)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("icache-gen: wrote %s (%d samples, %d MB) in %s",
		*out, spec.NumSamples, info.Size()>>20, time.Since(start).Round(time.Millisecond))
}
