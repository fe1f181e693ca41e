package train

import (
	"icache/internal/dataset"
	"icache/internal/sampling"
)

// Learner is a training job's learning side, apart from any clock: it owns
// the importance tracker and the loss model, scores each trained sample's
// loss through the job's criterion, counts the epoch's substitutions by
// source and the distinct samples it trains, and at each epoch's end folds
// the epoch's distortion into the accuracy model. Job drives it from its
// discrete-event engine; a client training against a cache server over the
// wire drives it from the batches the server returns.
type Learner struct {
	cfg     Config
	src     SubSource
	tracker *sampling.Tracker
	loss    *LossModel
	acc     *accuracyModel

	// Per-epoch accumulators.
	trained      int
	subLC, subHC int
	distinct     int
	seen         []bool // trained this epoch, by sample id
}

// NewLearner builds the learner of a job configured by cfg whose
// substituted samples come from src.
func NewLearner(cfg Config, src SubSource) (*Learner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tr, err := sampling.NewTracker(cfg.Dataset.NumSamples, cfg.TrackerInit, cfg.TrackerDecay)
	if err != nil {
		return nil, err
	}
	lm, err := NewLossModel(cfg.Dataset, modelSalt(cfg.Model.Name))
	if err != nil {
		return nil, err
	}
	return &Learner{
		cfg:     cfg,
		src:     src,
		tracker: tr,
		loss:    lm,
		acc:     newAccuracyModel(cfg.Model, cfg.Dataset, uint64(cfg.Seed)*0x9E37+1),
		seen:    make([]bool, cfg.Dataset.NumSamples),
	}, nil
}

// Tracker exposes the importance tracker the epoch's schedule is drawn from.
func (l *Learner) Tracker() *sampling.Tracker { return l.tracker }

// BeginEpoch opens epoch: it advances the loss model's noise phase and,
// under the proxy-model criterion, re-scores every sample. Draw the epoch's
// schedule from Tracker after it.
func (l *Learner) BeginEpoch(epoch int) {
	l.loss.BeginEpoch(epoch)
	if l.cfg.Criterion == sampling.CriterionProxyModel {
		// The proxy model re-scores every sample each epoch: no stale
		// importance for skipped samples, but each score carries the
		// proxy's estimation error.
		for i := 0; i < l.tracker.Len(); i++ {
			id := dataset.SampleID(i)
			l.tracker.Observe(id, l.loss.ProxyScore(id, epoch))
		}
	}
	l.trained, l.subLC, l.subHC, l.distinct = 0, 0, 0, 0
	clear(l.seen)
}

// Train takes one sample of a batch: requested is the id the schedule
// asked for, served the id that came back (a substitute when the two
// differ), and trained whether the step computes on it. A trained sample's
// loss, scored by the criterion, updates its importance.
func (l *Learner) Train(requested, served dataset.SampleID, trained bool) {
	if served != requested {
		if l.src == SubSourceLCache {
			l.subLC++
		} else {
			l.subHC++
		}
	}
	if !trained {
		return
	}
	l.tracker.Observe(served, l.cfg.Criterion.Score(l.loss.Train(served)))
	if !l.seen[served] {
		l.seen[served] = true
		l.distinct++
	}
	l.trained++
}

// Trained reports how many samples the epoch has trained so far.
func (l *Learner) Trained() int { return l.trained }

// Substitutions reports how many of the epoch's samples so far came back
// in place of the requested one.
func (l *Learner) Substitutions() int { return l.subLC + l.subHC }

// EndEpoch closes the epoch whose fetch order was scheduled, echoed being
// the sample-trainings replayed as data echoes, and returns the accuracy
// model's Top-1 and Top-5 after it.
func (l *Learner) EndEpoch(scheduled []dataset.SampleID, echoed int) (top1, top5 float64) {
	trainedFrac := float64(l.distinct) / float64(l.cfg.Dataset.NumSamples)
	skippedImp := skippedImportanceMean(l.tracker, scheduled)
	var subLCFrac, subHCFrac float64
	if l.trained > 0 {
		subLCFrac = float64(l.subLC) / float64(l.trained)
		subHCFrac = float64(l.subHC) / float64(l.trained)
	}
	var echoFrac float64
	if l.trained+echoed > 0 {
		echoFrac = float64(echoed) / float64(l.trained+echoed)
	}
	sens := l.cfg.Model.AccuracySensitivity
	l.acc.observeEpoch(epochDistortion(sens, trainedFrac, skippedImp, subLCFrac, subHCFrac) + echoCoeff*echoFrac*sens)
	return l.acc.accuracy()
}
