package corpus

import (
	"bytes"
	"testing"

	"clgen/internal/github"
	"clgen/internal/journal"
)

// captureJournal runs fn with a temporary process-global journal and
// returns the events it emitted.
func captureJournal(t *testing.T, fn func()) []journal.Event {
	t.Helper()
	var buf bytes.Buffer
	w := journal.NewWriter(&buf)
	journal.SetActive(w)
	defer journal.SetActive(nil)
	fn()
	journal.SetActive(nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestJournalMatchesStatsAcrossWorkers asserts the tentpole invariant for
// the corpus stage: the journal's per-reason corpus_filter tally equals
// Stats.Reasons exactly, and journals taken at different worker counts are
// equivalent after order normalization. Runs under -race via make check.
func TestJournalMatchesStatsAcrossWorkers(t *testing.T) {
	files := github.Mine(github.MinerConfig{Seed: 23, Repos: 40, FilesPerRepo: 8})
	type run struct {
		c      *Corpus
		events []journal.Event
	}
	build := func(workers int) run {
		var c *Corpus
		events := captureJournal(t, func() {
			var err error
			c, err = BuildEx(files, BuildOpts{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		})
		return run{c: c, events: events}
	}

	runs := map[int]run{}
	for _, workers := range []int{1, 2, 8} {
		r := build(workers)
		runs[workers] = r

		f := journal.Funnel(r.events)
		if f.Mined != r.c.Stats.Files {
			t.Errorf("workers=%d: journal mined=%d, stats files=%d", workers, f.Mined, r.c.Stats.Files)
		}
		if f.CorpusAccepted != r.c.Stats.AcceptedFiles {
			t.Errorf("workers=%d: journal accepted=%d, stats accepted=%d",
				workers, f.CorpusAccepted, r.c.Stats.AcceptedFiles)
		}
		// Per-reason tallies must match exactly — the acceptance criterion.
		if len(f.CorpusReasons) != len(r.c.Stats.Reasons) {
			t.Errorf("workers=%d: journal has %d reasons, stats %d",
				workers, len(f.CorpusReasons), len(r.c.Stats.Reasons))
		}
		for reason, n := range r.c.Stats.Reasons {
			if got := f.CorpusReasons[string(reason)]; got != n {
				t.Errorf("workers=%d: reason %q: journal=%d stats=%d", workers, reason, got, n)
			}
		}
		if f.RewrittenKernels != r.c.Stats.Kernels {
			t.Errorf("workers=%d: journal kernels=%d, stats kernels=%d",
				workers, f.RewrittenKernels, r.c.Stats.Kernels)
		}
	}

	for _, workers := range []int{2, 8} {
		if !journal.Equivalent(runs[1].events, runs[workers].events) {
			t.Errorf("journal at workers=%d not equivalent to workers=1", workers)
		}
	}
}
