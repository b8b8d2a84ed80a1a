package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"

	"clgen/internal/driver"
	"clgen/internal/interp"
)

// referenceJSON holds the campaign's outputs for the default seed, written
// by --record. TestMirrorsCampaign checks it against the campaign.
//
//go:embed testdata/reference.json
var referenceJSON []byte

type reference struct {
	Synthesize synthRef    `json:"synthesize"`
	Drive      []checkRef  `json:"drive"`
	Suites     []suiteRef  `json:"suites"`
	Table1     [][]float64 `json:"table1"`
}

// checkRef is one (kernel, payload size) of the drive workload.
type checkRef struct {
	Kernel     int              `json:"kernel"`
	Size       int              `json:"size"`
	LoadFailed bool             `json:"load_failed,omitempty"`
	Verdict    string           `json:"verdict,omitempty"`
	Class      string           `json:"class,omitempty"`
	Fault      *interp.MemFault `json:"fault,omitempty"`
	AMD        *obsRef          `json:"amd,omitempty"`
	NV         *obsRef          `json:"nv,omitempty"`
}

// suiteRef is one suite job's two observations.
type suiteRef struct {
	AMD *obsRef `json:"amd"`
	NV  *obsRef `json:"nv"`
}

// obsRef is an observation's modelled runtimes and oracle label.
type obsRef struct {
	Kernel string  `json:"kernel"`
	CPU    float64 `json:"cpu_s"`
	GPU    float64 `json:"gpu_s"`
	Oracle string  `json:"oracle"`
}

func loadReference() (*reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return &r, nil
}

func obsRefOf(m *driver.Measurement) *obsRef {
	if m == nil {
		return nil
	}
	return &obsRef{Kernel: m.Kernel, CPU: m.CPUTime, GPU: m.GPUTime, Oracle: m.Oracle.String()}
}

// driveRefs lists a drive pass's outcomes in reference order; classes is
// nil when the pass was not replayed.
func driveRefs(items []driveItem, classes map[string]string) []checkRef {
	var out []checkRef
	for i, it := range items {
		for j, size := range payloadSizes {
			r := checkRef{Kernel: i, Size: size}
			if it.loadErr != nil {
				r.LoadFailed = true
				out = append(out, r)
				continue
			}
			dc := it.checks[j]
			r.Verdict, r.Fault = string(dc.verdict), dc.fault
			r.Class = classes[checkKey(i, min(size, execCap))]
			r.AMD, r.NV = obsRefOf(dc.amd), obsRefOf(dc.nv)
			out = append(out, r)
		}
	}
	return out
}

func suiteRefs(outs []suiteOut) []suiteRef {
	out := make([]suiteRef, len(outs))
	for i, o := range outs {
		out[i] = suiteRef{AMD: obsRefOf(o.amd), NV: obsRefOf(o.nv)}
	}
	return out
}

// referenceOf assembles the reference from one cold pass of each workload.
func referenceOf(c *campaign, items []driveItem, classes map[string]string, t1 *table1Run) *reference {
	r := &reference{
		Synthesize: synthRefOf(campaignSeed+100, c.synth, c.stats),
		Drive:      driveRefs(items, classes),
		Suites:     suiteRefs(t1.outs),
	}
	if t1.grid != nil {
		r.Table1 = t1.grid.Grid
	}
	return r
}

// recordReference writes the campaign's outputs for the default seed.
func recordReference(path string, workers int) error {
	c, err := setup(workers, nil)
	if err != nil {
		return err
	}
	items, _ := drivePass(c, identity(len(c.synth)), workers, nil)
	rs := replayDrive(items, workers, nil)
	t1, err := table1Pass(c, identity(len(c.jobs)), workers, nil)
	if err != nil {
		return err
	}
	if t1.grid == nil {
		return errors.New("a suite job failed")
	}
	data, err := json.MarshalIndent(referenceOf(c, items, rs.classes, t1), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func (b *bench) checkCampaign(c *campaign) {
	b.tally.check(synthRefOf(campaignSeed+100, c.synth, c.stats) == b.ref.Synthesize, "campaign synthesis")
}

// checkDrive compares a drive pass with the reference. Without classes
// (an untraced pass, not replayed) failure classes are not compared.
func (b *bench) checkDrive(items []driveItem, hitDelta int64, classes map[string]string) {
	got := driveRefs(items, classes)
	if len(got) != len(b.ref.Drive) {
		b.tally.check(false, "drive: %d checks, the reference has %d", len(got), len(b.ref.Drive))
		return
	}
	for i, want := range b.ref.Drive {
		if classes == nil {
			want.Class = ""
		}
		b.tally.check(reflect.DeepEqual(got[i], want), "drive kernel %d at size %d", want.Kernel, want.Size)
	}
	// Every size runs at the capped size, so a loaded kernel's later sizes
	// must be memo hits and nothing else may be: a warm memo would pass as
	// a speed-up.
	seen := map[int]bool{}
	for _, s := range payloadSizes {
		seen[min(s, execCap)] = true
	}
	var hits, expected int64
	for _, it := range items {
		if it.loadErr != nil {
			continue
		}
		expected += int64(len(payloadSizes) - len(seen))
		for _, dc := range it.checks {
			if dc.hit {
				hits++
			}
		}
	}
	b.tally.check(hits == expected && hitDelta == expected,
		"drive: %d check-memo hits (%d counted), want %d", hits, hitDelta, expected)
}

// checkTable1 compares a table1 pass with the reference.
func (b *bench) checkTable1(r *table1Run) {
	got := suiteRefs(r.outs)
	if len(got) != len(b.ref.Suites) {
		b.tally.check(false, "table1: %d jobs, the reference has %d", len(got), len(b.ref.Suites))
		return
	}
	for i, want := range b.ref.Suites {
		b.tally.check(r.outs[i].err == nil && reflect.DeepEqual(got[i], want), "suite job %d (%v)", i, r.outs[i].err)
	}
	b.tally.check(r.grid != nil && reflect.DeepEqual(r.grid.Grid, b.ref.Table1), "table1 grid")
}
