package exp

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dharma/internal/dataset"
)

// Reproduce regenerates every table and figure of the paper's
// evaluation section, plus the ablations and extensions, on a synthetic
// workload at the named scale ("tiny", "small" or "lastfm") from the
// generator seed. Each artifact is printed to out under a section header
// that carries the elapsed time; when csvDir is non-empty the figures'
// series are also written there as CSV files. Apart from the timing in
// the section headers and the closing line, the output is a function of
// scale and seed alone.
func Reproduce(out io.Writer, scale string, seed int64, csvDir string) error {
	var cfg dataset.Config
	var seeds, randomRuns int
	switch scale {
	case "tiny":
		cfg, seeds, randomRuns = dataset.Tiny(seed), 10, 20
	case "small":
		cfg, seeds, randomRuns = dataset.Small(seed), 50, 50
	case "lastfm":
		cfg, seeds, randomRuns = dataset.LastFMScaled(seed), 100, 100
	default:
		return fmt.Errorf("exp: unknown scale %q", scale)
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
	}

	w := NewWorkbench(cfg)
	var t4 *Table4Result
	sections := []struct {
		name string
		csv  string // file the artifact's series go to ("" = none)
		run  func() (fmt.Stringer, error)
	}{
		{"Table I", "", func() (fmt.Stringer, error) {
			t1, err := RunTable1(5)
			if err == nil && !t1.Verified() {
				err = fmt.Errorf("exp: Table I verification failed:\n%s", t1)
			}
			return t1, err
		}},
		{"Table II", "", func() (fmt.Stringer, error) { return RunTable2(w), nil }},
		{"Figure 5", "figure5.csv", func() (fmt.Stringer, error) { return RunFigure5(w), nil }},
		{"Table III", "", func() (fmt.Stringer, error) { return RunTable3(w, []int{1, 5, 10}), nil }},
		{"Figure 6", "figure6.csv", func() (fmt.Stringer, error) { return RunFigure6(w, []int{1, 100}), nil }},
		{"Figure 8", "figure8.csv", func() (fmt.Stringer, error) { return RunFigure8(w, []int{1, 25, 500}), nil }},
		{"Table IV", "", func() (fmt.Stringer, error) {
			t4 = RunTable4(w, 1, seeds, randomRuns)
			return t4, nil
		}},
		{"Figure 7", "figure7.csv", func() (fmt.Stringer, error) { return RunFigure7(t4), nil }},
		{"Ablation A1 (approximations in isolation)", "", func() (fmt.Stringer, error) { return RunAblationB(w, 1), nil }},
		{"Ablation A2 (k sweep)", "", func() (fmt.Stringer, error) {
			return RunAblationK(w, []int{1, 2, 5, 10, 25, 100}), nil
		}},
		{"Ablation A3 (hotspots)", "", func() (fmt.Stringer, error) { return RunHotspots(w, 32, 2000, 5) }},
		{"Ablation A4 (filter cap)", "", func() (fmt.Stringer, error) {
			return RunFilterCap(w, []int{10, 50, 100, 500}, min(seeds, 20), min(randomRuns, 20)), nil
		}},
		{"Extension A5 (trend emergence — §VI future work)", "trend.csv", func() (fmt.Stringer, error) {
			return RunTrendEmergence(w, 1, cfg.Annotations/100, 12, 100), nil
		}},
		{"Extension A6 (availability under churn)", "", func() (fmt.Stringer, error) {
			return RunChurn(w, 20, 1200, 6, 3, 2, 4)
		}},
	}

	start := time.Now()
	for _, s := range sections {
		fmt.Fprintf(out, "\n===== %s (elapsed %.1fs) =====\n", s.name, time.Since(start).Seconds())
		r, err := s.run()
		if err != nil {
			return err
		}
		fmt.Fprint(out, r)
		if s.csv != "" && csvDir != "" {
			if err := writeCSV(filepath.Join(csvDir, s.csv), r.(csvWriter)); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(out, "\nall artifacts regenerated in %.1fs\n", time.Since(start).Seconds())
	return nil
}

// csvWriter is a figure result that can dump its series.
type csvWriter interface{ WriteCSV(io.Writer) error }

// writeCSV writes one artifact's series to path.
func writeCSV(path string, r csvWriter) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
