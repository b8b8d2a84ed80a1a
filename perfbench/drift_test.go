package main

import (
	"reflect"
	"testing"

	"clgen/internal/experiments"
	"clgen/internal/grewe"
	"clgen/internal/journal"
	"clgen/internal/platform"
)

// TestMirrorsCampaign is the drift guard. The drive and table1 loops make
// the campaign's measurement calls one by one, so for the default seed
// their observations and the Table 1 grid must equal those of
// experiments.BuildWorld(experiments.TestConfig()), and the committed
// reference must equal what --record writes.
func TestMirrorsCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the test-scale world")
	}
	workers, err := pin()
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.TestConfig()
	if cfg.Seed != campaignSeed || cfg.MinerRepos != minerRepos || cfg.SynthKernels != synthKernels ||
		cfg.ExecCap != execCap || cfg.StaticChecks || !reflect.DeepEqual(cfg.PayloadSizes, payloadSizes) {
		t.Fatalf("the campaign constants no longer match experiments.TestConfig(): %+v", cfg)
	}
	world, err := experiments.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := setup(workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.synth, world.Synth) || !reflect.DeepEqual(c.stats, world.Stats) {
		t.Fatal("set-up synthesized other kernels than the campaign")
	}

	items, _ := drivePass(c, identity(len(c.synth)), workers, nil)
	synthObs := map[string][]*grewe.Observation{}
	amd, nv := platform.SystemAMD.Name, platform.SystemNVIDIA.Name
	for i, it := range items {
		for _, dc := range it.checks {
			if dc.amd == nil || dc.nv == nil {
				continue
			}
			id := journal.ID(c.synth[i])
			synthObs[amd] = append(synthObs[amd], &grewe.Observation{Bench: "synthetic", ID: id, M: dc.amd})
			synthObs[nv] = append(synthObs[nv], &grewe.Observation{Bench: "synthetic", ID: id, M: dc.nv})
		}
	}
	if !reflect.DeepEqual(synthObs, world.SynthObs) {
		t.Error("drive observations differ from the campaign's synthetic measurements")
	}

	t1, err := table1Pass(c, identity(len(c.jobs)), workers, nil)
	if err != nil || t1.grid == nil {
		t.Fatalf("table1 pass: %v", err)
	}
	if !reflect.DeepEqual(t1.world.Obs, world.Obs) {
		t.Error("table1 observations differ from the campaign's suite measurements")
	}
	want, err := experiments.Table1(world)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(t1.grid.Grid, want.Grid) {
		t.Error("the Table 1 grid differs from the campaign's")
	}

	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	if got := referenceOf(c, items, replayDrive(items, workers, nil).classes, t1); !reflect.DeepEqual(got, ref) {
		t.Error("testdata/reference.json is stale; rerun go run . --record testdata/reference.json")
	}
}
