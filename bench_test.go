// Package icache's root test file wires every paper artifact to a
// testing.B benchmark: `go test -bench Fig8` regenerates Figure 8 (quick
// scale), and `-bench .` sweeps the entire evaluation. Benchmarks print
// their report under -v so the rows the paper presents are visible in the
// bench log; the reported ns/op is the wall time of regenerating the
// artifact, not a claim about the simulated system.
package icache

import (
	"os"
	"testing"

	"icache/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, experiments.Options{Quick: true, Seed: int64(i)})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 && testing.Verbose() {
			rep.Print(os.Stdout)
		}
	}
}

// BenchmarkFig1 regenerates Figure 1 (I/O fraction vs batch size).
func BenchmarkFig1(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig2 regenerates Figure 2 (CIS on tmpfs vs remote storage).
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3 regenerates Figure 3 (importance-value drift).
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkTable1 regenerates Table I (CIFAR10 accuracy).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "tab1") }

// BenchmarkTable2 regenerates Table II (ImageNet accuracy).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "tab2") }

// BenchmarkTable3 regenerates Table III (substitution policy vs accuracy).
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "tab3") }

// BenchmarkFig7 regenerates Figure 7 (accuracy convergence curves).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8 (per-epoch training time, 8 models ×
// 7 systems).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9 (per-epoch I/O time on CIFAR10).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10 (technique ablation, training time).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11 (technique ablation, I/O + hit
// ratio).
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Figure 12 (multi-GPU scaling).
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13 regenerates Figure 13 (distributed training over NFS).
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14 regenerates Figure 14 (multi-job shared cache).
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkFig15 regenerates Figure 15 (prefetch-worker sensitivity).
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkFig16 regenerates Figure 16 (cache-size sensitivity).
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16") }

// BenchmarkAblPackaging runs the dynamic-vs-static packaging ablation.
func BenchmarkAblPackaging(b *testing.B) { benchExperiment(b, "abl-packaging") }

// BenchmarkAblPartition runs the H/L partition-policy ablation.
func BenchmarkAblPartition(b *testing.B) { benchExperiment(b, "abl-partition") }

// BenchmarkExtSeeds runs the seed-variance robustness study.
func BenchmarkExtSeeds(b *testing.B) { benchExperiment(b, "ext-seeds") }

// BenchmarkExtPolicies runs the classical-policy comparison.
func BenchmarkExtPolicies(b *testing.B) { benchExperiment(b, "ext-policies") }
