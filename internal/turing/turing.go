// Package turing simulates the paper's §6.1 qualitative evaluation: a
// double-blind "human or machine?" test in which judges see rewritten
// kernels drawn from equal pools of hand-written and generated code.
//
// Each simulated judge models a developer's intuition with two signals the
// study's participants demonstrably used: (1) statistical familiarity —
// the perplexity of the code under a character model of human-written
// OpenCL (unfamiliar constructs read as machine output), and (2) explicit
// "tells" — CLSmith's single-ulong-pointer signature, literal-soup
// expressions, and hash-everything epilogues. Judges differ by a seeded
// personal suspicion threshold, giving the score distribution its spread.
package turing

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"clgen/internal/model"
	"clgen/internal/nn"
)

// Panel is a pool of simulated judges sharing a reference model of human
// code.
type Panel struct {
	ref   *nn.NGram
	vocab *model.Vocabulary
	// humanMean/humanStd calibrate per-character surprisal on held-out
	// human code.
	humanMean float64
	humanStd  float64
}

// refOrder is the reference model's context length: long enough to capture
// idiom, short enough to generalize across kernels.
const refOrder = 6

// NewPanel calibrates a judging panel on a corpus of human-written
// (rewritten) kernels. calibration should be a held-out sample of the same
// distribution; it defaults to the corpus itself.
func NewPanel(humanCorpus string, calibration []string) (*Panel, error) {
	if len(humanCorpus) == 0 {
		return nil, fmt.Errorf("turing: empty human corpus")
	}
	v := model.BuildVocabulary(humanCorpus)
	ng, err := nn.TrainNGram(v.Encode(humanCorpus), v.Size(), refOrder)
	if err != nil {
		return nil, fmt.Errorf("turing: %w", err)
	}
	p := &Panel{ref: ng, vocab: v}
	if len(calibration) == 0 {
		// Calibrate on corpus chunks.
		for i := 0; i+400 <= len(humanCorpus) && len(calibration) < 32; i += len(humanCorpus) / 32 {
			calibration = append(calibration, humanCorpus[i:i+400])
		}
	}
	var scores []float64
	for _, c := range calibration {
		scores = append(scores, p.surprisal(c))
	}
	var sum, sum2 float64
	for _, s := range scores {
		sum += s
	}
	p.humanMean = sum / float64(len(scores))
	for _, s := range scores {
		d := s - p.humanMean
		sum2 += d * d
	}
	p.humanStd = math.Sqrt(sum2/float64(len(scores))) + 1e-9
	return p, nil
}

// surprisal returns mean negative log2 probability per character under the
// reference model.
func (p *Panel) surprisal(code string) float64 {
	ids := p.vocab.Encode(code)
	if len(ids) < 2 {
		return 0
	}
	sess := p.ref.NewSession()
	probs := make([]float64, p.vocab.Size())
	var total float64
	for i, id := range ids {
		if i > 0 {
			sess.Distribution(1, probs)
			pr := probs[id]
			if pr < 1e-9 {
				pr = 1e-9
			}
			total -= math.Log2(pr)
		}
		sess.Observe(id)
	}
	return total / float64(len(ids)-1)
}

// tells returns an additive machine-suspicion score for explicit fuzzer
// signatures that survive code rewriting.
func tells(code string) float64 {
	var score float64
	// A single ulong-pointer argument: the canonical CLSmith tell.
	if strings.Contains(code, "__global ulong*") && strings.Count(code, ",") == 0 {
		score += 4
	}
	// Literal soup: hex constants per line.
	lines := strings.Count(code, "\n") + 1
	hexes := strings.Count(code, "0x")
	if r := float64(hexes) / float64(lines); r > 0.2 {
		score += 2 + 4*r
	}
	// Deep parenthesization relative to code volume.
	if r := float64(strings.Count(code, "(")) / float64(lines); r > 4 {
		score += r / 3
	}
	return score
}

// judge evaluates one kernel with a personal threshold offset in z-score
// units drawn from the judge's RNG.
func (p *Panel) judge(code string, rng *rand.Rand) bool {
	z := (p.surprisal(code) - p.humanMean) / p.humanStd
	z += tells(code)
	// Personal suspicion threshold around z≈2 with judge-to-judge and
	// kernel-to-kernel variation: familiar code (z≈0) is a coin flip
	// biased slightly toward "human"; alien code (z>3) is near-certain.
	noise := rng.NormFloat64() * 1.2
	return z+noise > 1.0
}

// GroupResult summarizes one judging group.
type GroupResult struct {
	Scores         []float64 // per-judge fraction correct
	Mean           float64
	Stdev          float64
	FalsePositives int // machine-written labeled human... no: human label for machine code
	FalseNegatives int // human-written labeled machine
}

func summarize(scores []float64, fp, fn int) GroupResult {
	g := GroupResult{Scores: scores, FalsePositives: fp, FalseNegatives: fn}
	for _, s := range scores {
		g.Mean += s
	}
	g.Mean /= float64(len(scores))
	for _, s := range scores {
		d := s - g.Mean
		g.Stdev += d * d
	}
	g.Stdev = math.Sqrt(g.Stdev / float64(len(scores)))
	return g
}

// RunGroup scores a group of judges, each shown kernelsPerJudge kernels
// drawn randomly (per judge) from equal pools of machine and human code —
// the §6.1 protocol. FalsePositives counts machine code labeled human;
// FalseNegatives counts human code labeled machine.
func (p *Panel) RunGroup(machinePool, humanPool []string, judges, kernelsPerJudge int, seed int64) GroupResult {
	var scores []float64
	fp, fn := 0, 0
	for j := 0; j < judges; j++ {
		rng := rand.New(rand.NewSource(seed + int64(j)*7919))
		correct := 0
		for k := 0; k < kernelsPerJudge; k++ {
			machine := rng.Intn(2) == 0
			var code string
			if machine {
				code = machinePool[rng.Intn(len(machinePool))]
			} else {
				code = humanPool[rng.Intn(len(humanPool))]
			}
			said := p.judge(code, rng)
			if said == machine {
				correct++
			} else if machine {
				fp++
			} else {
				fn++
			}
		}
		scores = append(scores, float64(correct)/float64(kernelsPerJudge))
	}
	return summarize(scores, fp, fn)
}
