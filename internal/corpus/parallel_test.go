package corpus

import (
	"reflect"
	"testing"

	"clgen/internal/github"
)

// TestBuildDeterministicAcrossWorkers is the corpus half of the
// determinism suite: the parallel per-file stage with ordered aggregation
// must produce a byte-identical corpus (text, kernel list, and statistics)
// for every worker count.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	files := github.Mine(github.MinerConfig{Seed: 23, Repos: 40, FilesPerRepo: 8})
	want, err := BuildEx(files, BuildOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := BuildEx(files, BuildOpts{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Text != want.Text {
			t.Fatalf("workers=%d: corpus text differs (len %d vs %d)",
				workers, len(got.Text), len(want.Text))
		}
		if !reflect.DeepEqual(got.Kernels, want.Kernels) {
			t.Fatalf("workers=%d: kernel lists differ", workers)
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Fatalf("workers=%d: stats differ:\n%+v\nvs\n%+v", workers, got.Stats, want.Stats)
		}
	}
}

// TestBuildStaticDeterministicAcrossWorkers repeats the determinism
// check with the analyzer-backed strict filter enabled: the static
// passes are pure functions of each file, so corpus text, kernel list,
// and the Stats.Reasons histogram (which now includes "static: <lint>"
// entries) must not depend on the worker count.
func TestBuildStaticDeterministicAcrossWorkers(t *testing.T) {
	files := github.Mine(github.MinerConfig{Seed: 23, Repos: 40, FilesPerRepo: 8})
	want, err := BuildEx(files, BuildOpts{Workers: 1, Static: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := BuildEx(files, BuildOpts{Workers: workers, Static: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Text != want.Text {
			t.Fatalf("workers=%d: corpus text differs (len %d vs %d)",
				workers, len(got.Text), len(want.Text))
		}
		if !reflect.DeepEqual(got.Kernels, want.Kernels) {
			t.Fatalf("workers=%d: kernel lists differ", workers)
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Fatalf("workers=%d: stats differ:\n%+v\nvs\n%+v", workers, got.Stats, want.Stats)
		}
	}
}
