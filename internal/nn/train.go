package nn

import (
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"time"

	"clgen/internal/journal"
	"clgen/internal/telemetry"
)

// TrainConfig controls LSTM training. The defaults follow §4.2 of the
// paper: SGD with an initial learning rate of 0.002, decayed by one half
// every 5 epochs, over 50 epochs.
type TrainConfig struct {
	Epochs      int     // default 50
	SeqLen      int     // truncated-BPTT window, default 64
	LearnRate   float64 // default 0.002
	DecayEvery  int     // epochs between decays, default 5
	DecayFactor float64 // default 0.5
	Clip        float64 // elementwise gradient clip, default 5
	BatchSeqs   int     // sequences per parameter update, default 4
	Seed        int64
	// Progress, when non-nil, receives (epoch, meanLossPerChar).
	Progress func(epoch int, loss float64)
	// Lineage, when non-empty, is the model identity stamped into the
	// per-epoch trained journal events (set by internal/model, which
	// computes it as cache.Key over config + corpus + seed).
	Lineage string
}

func (c *TrainConfig) defaults() {
	if c.Epochs <= 0 {
		c.Epochs = 50
	}
	if c.SeqLen <= 0 {
		c.SeqLen = 64
	}
	if c.LearnRate <= 0 {
		c.LearnRate = 0.002
	}
	if c.DecayEvery <= 0 {
		c.DecayEvery = 5
	}
	if c.DecayFactor <= 0 {
		c.DecayFactor = 0.5
	}
	if c.Clip <= 0 {
		c.Clip = 5
	}
	if c.BatchSeqs <= 0 {
		c.BatchSeqs = 4
	}
}

// Train fits the model to an encoded corpus (a sequence of vocabulary
// indices) and returns the final mean cross-entropy loss per character.
func (m *LSTM) Train(corpus []int, cfg TrainConfig) (float64, error) {
	cfg.defaults()
	if len(corpus) < cfg.SeqLen+1 {
		return 0, fmt.Errorf("nn: corpus of %d chars shorter than one sequence (%d)", len(corpus), cfg.SeqLen+1)
	}
	for _, x := range corpus {
		if x < 0 || x >= m.Vocab {
			return 0, fmt.Errorf("nn: corpus index %d outside vocabulary %d", x, m.Vocab)
		}
	}
	span := telemetry.Start("nn.train").
		SetAttr("epochs", cfg.Epochs).SetAttr("corpus_chars", len(corpus))
	defer span.End()
	reg := telemetry.Default()
	lossGauge := reg.Gauge("nn_train_loss", "Mean cross-entropy per character of the last epoch.")
	pplGauge := reg.Gauge("nn_train_perplexity", "exp(loss) of the last epoch.")
	rateGauge := reg.Gauge("nn_train_chars_per_sec", "Training throughput of the last epoch.")
	clipGauge := reg.Gauge("nn_train_clip_rate", "Fraction of gradient elements clipped in the last epoch.")
	charsTotal := reg.Counter("nn_train_chars_total", "Characters consumed by LSTM training.")
	epochSeconds := reg.Histogram("nn_train_epoch_seconds", "Wall time per training epoch.", nil)

	rng := rand.New(rand.NewSource(cfg.Seed))
	lr := cfg.LearnRate
	var lastLoss float64
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		epochStart := time.Now()
		cpuStart, cpuOK := telemetry.SampleResources()
		st := m.ZeroState()
		g := m.newGrads()
		var epochLoss float64
		var chars int
		var clipped, gradTotal int
		seqsInBatch := 0
		// March through the corpus in SeqLen windows; a random phase keeps
		// epochs from seeing identical window boundaries.
		start := rng.Intn(cfg.SeqLen)
		for pos := start; pos+cfg.SeqLen+1 <= len(corpus); pos += cfg.SeqLen {
			inputs := corpus[pos : pos+cfg.SeqLen]
			targets := corpus[pos+1 : pos+cfg.SeqLen+1]
			epochLoss += m.trainSequence(inputs, targets, st, g)
			chars += cfg.SeqLen
			seqsInBatch++
			if seqsInBatch == cfg.BatchSeqs {
				c, t := m.applySGD(g, lr, cfg.Clip, seqsInBatch*cfg.SeqLen)
				clipped, gradTotal = clipped+c, gradTotal+t
				g = m.newGrads()
				seqsInBatch = 0
			}
		}
		if seqsInBatch > 0 {
			c, t := m.applySGD(g, lr, cfg.Clip, seqsInBatch*cfg.SeqLen)
			clipped, gradTotal = clipped+c, gradTotal+t
		}
		lastLoss = epochLoss / math.Max(float64(chars), 1)
		elapsed := time.Since(epochStart)
		charsPerSec := float64(chars) / math.Max(elapsed.Seconds(), 1e-9)
		clipRate := float64(clipped) / math.Max(float64(gradTotal), 1)
		lossGauge.Set(lastLoss)
		pplGauge.Set(math.Exp(lastLoss))
		rateGauge.Set(charsPerSec)
		clipGauge.Set(clipRate)
		charsTotal.Add(int64(chars))
		epochSeconds.Observe(elapsed.Seconds())
		slog.Debug("nn: epoch complete",
			"epoch", epoch, "loss", lastLoss, "chars_per_sec", charsPerSec,
			"clip_rate", clipRate, "lr", lr)
		if cfg.Lineage != "" && journal.Enabled() {
			ev := journal.Event{
				ID:           cfg.Lineage,
				Stage:        journal.StageTrained,
				Model:        cfg.Lineage,
				Variant:      "lstm",
				Epoch:        epoch,
				Loss:         lastLoss,
				ClipRate:     clipRate,
				TokensPerSec: charsPerSec,
				DurMS:        float64(elapsed.Microseconds()) / 1000,
			}
			if cpuEnd, ok := telemetry.SampleResources(); ok && cpuOK {
				ev.CPUSeconds = cpuEnd.CPUSeconds - cpuStart.CPUSeconds
			}
			journal.Emit(ev)
		}
		if cfg.Progress != nil {
			cfg.Progress(epoch, lastLoss)
		}
		if epoch%cfg.DecayEvery == 0 {
			lr *= cfg.DecayFactor
		}
	}
	span.SetAttr("final_loss", lastLoss)
	return lastLoss, nil
}

// Loss evaluates mean cross-entropy per character over an encoded corpus
// without updating parameters.
func (m *LSTM) Loss(corpus []int) float64 {
	if len(corpus) < 2 {
		return 0
	}
	st := m.ZeroState()
	var loss float64
	p := make([]float64, m.Vocab)
	for t := 0; t+1 < len(corpus); t++ {
		logits := m.Step(corpus[t], st)
		Softmax(logits, p, 1)
		loss -= math.Log(math.Max(p[corpus[t+1]], 1e-12))
	}
	return loss / float64(len(corpus)-1)
}
