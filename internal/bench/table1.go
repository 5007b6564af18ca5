package bench

import (
	"fmt"
	"path/filepath"
	"runtime"

	"github.com/bsc-repro/ompss/internal/loc"
)

// appVariantFiles maps each benchmark to the source files of its four
// versions, mirroring Table I's columns. The kernel bodies (shared by all
// versions, exactly as the CUDA kernels are shared by all of the paper's
// versions) are counted into every variant's total.
var appVariantFiles = map[string]map[string][]string{
	"matmul": {
		"serial":   {"apps/matmul_serial.go"},
		"cuda":     {"apps/matmul_cuda.go"},
		"mpi+cuda": {"apps/matmul_mpicuda.go"},
		"ompss":    {"apps/matmul_ompss.go"},
	},
	"stream": {
		"serial":   {"apps/stream_serial.go"},
		"cuda":     {"apps/stream_cuda.go"},
		"mpi+cuda": {"apps/stream_mpicuda.go"},
		"ompss":    {"apps/stream_ompss.go"},
	},
	"perlin": {
		"serial":   {"apps/perlin_serial.go"},
		"cuda":     {"apps/perlin_cuda.go"},
		"mpi+cuda": {"apps/perlin_mpicuda.go"},
		"ompss":    {"apps/perlin_ompss.go"},
	},
	"nbody": {
		"serial":   {"apps/nbody_serial.go"},
		"cuda":     {"apps/nbody_cuda.go"},
		"mpi+cuda": {"apps/nbody_mpicuda.go"},
		"ompss":    {"apps/nbody_ompss.go"},
	},
}

// kernelFiles are shared by all variants of every app (the user-provided
// kernels of the paper).
var kernelFiles = []string{"kernels/kernels.go", "kernels/f32.go"}

var variantOrder = []string{"serial", "cuda", "mpi+cuda", "ompss"}

var appOrder = []string{"matmul", "stream", "perlin", "nbody"}

// internalDir locates the internal/ directory relative to this source file.
func internalDir() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		panic("bench: cannot locate source directory")
	}
	return filepath.Dir(filepath.Dir(file)) // internal/bench -> internal
}

// table1 reproduces Table I: useful lines of code of the Serial, CUDA,
// MPI+CUDA and OmpSs versions of every benchmark, with the percentage
// increase over the serial version.
func table1(Options) ([]Row, error) {
	base := internalDir()
	kernels, err := countRel(base, kernelFiles)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, app := range appOrder {
		serial := 0
		for _, variant := range variantOrder {
			n, err := countRel(base, appVariantFiles[app][variant])
			if err != nil {
				return rows, err
			}
			total := n + kernels/len(appOrder) // share of the common kernel file
			cfg := fmt.Sprintf("%s %s", app, variant)
			if variant == "serial" {
				serial = total
			} else if serial > 0 {
				cfg = fmt.Sprintf("%s (%+.1f%% vs serial)", cfg, 100*float64(total-serial)/float64(serial))
			}
			rows = append(rows, Row{Experiment: "table1", Config: cfg,
				Value: float64(total), Unit: "lines"})
		}
	}
	return rows, nil
}

func countRel(base string, rel []string) (int, error) {
	paths := make([]string, len(rel))
	for i, r := range rel {
		paths[i] = filepath.Join(base, r)
	}
	return loc.CountFiles(paths...)
}
