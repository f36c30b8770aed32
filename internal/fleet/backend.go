package fleet

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/inject"
	"repro/internal/wire"
)

// WorkerBeatEvery is the worker heartbeat period. It must be well
// under the supervisor's heartbeat deadline: missing several beats in
// a row is what gets a worker killed.
const WorkerBeatEvery = time.Second

// Backend implements wire.Backend on a core.Study: Boot builds the
// study from the spec shipped in the hello frame, Run executes one
// target under the full in-process retry-and-quarantine policy. It is
// the worker side of both kinject -worker and kampaignd -worker — one
// implementation, so a supervisor never cares which binary serves it.
type Backend struct {
	study *core.Study
	// sent is the study's block-engine counter total at the previous
	// BlockStatsDelta call.
	sent cpu.BlockStats
}

// Boot prepares the worker's simulated machine from the shipped spec
// and returns its golden oracle for cross-validation.
func (b *Backend) Boot(spec wire.StudySpec) (wire.Ready, error) {
	cfg := core.DefaultConfig()
	cfg.Scale = spec.Scale
	cfg.Seed = spec.Seed
	cfg.MaxTargetsPerFunc = spec.MaxTargetsPerFunc
	cfg.MaxFuncsPerCampaign = spec.MaxFuncsPerCampaign
	cfg.DisableAssertions = spec.DisableAssertions
	cfg.FaultModel = spec.FaultModel // "" = bitflip (inject.ModelTag)
	cfg.RunTimeout = spec.RunTimeout
	cfg.EngineOptions = spec.EngineOptions
	cfg.MaxRetries = spec.MaxRetries
	cs, err := analysis.ParseCampaigns(spec.Campaigns)
	if err != nil {
		return wire.Ready{}, err
	}
	cfg.Campaigns = cs
	s, err := core.New(cfg)
	if err != nil {
		return wire.Ready{}, err
	}
	b.study = s
	totals := make(map[string]int, len(cs))
	for _, c := range cs {
		ts, err := s.Targets(c)
		if err != nil {
			return wire.Ready{}, err
		}
		totals[analysis.CampaignKey(c)] = len(ts)
	}
	return wire.Ready{
		GoldenFP:   s.Runner.GoldenFingerprint(),
		GoldenDisk: fmt.Sprintf("%x", s.Runner.GoldenDiskHash()),
		Totals:     totals,
	}, nil
}

// Run executes one target by ordinal.
func (b *Backend) Run(campaign string, ordinal int) (*inject.Result, *inject.HarnessFault, error) {
	c, ok := analysis.CampaignFromKey(campaign)
	if !ok {
		return nil, nil, fmt.Errorf("unknown campaign key %q", campaign)
	}
	res, hf, err := b.study.RunOrdinal(c, ordinal)
	if err != nil {
		return nil, nil, err
	}
	if hf != nil {
		return nil, hf, nil
	}
	return &res, nil, nil
}

// BlockStatsDelta reports the superblock-engine counters the study's
// runs added since the previous reply; wire.Serve attaches them to
// result and fault frames so the supervisor can fold worker cache
// behavior into its metrics.
func (b *Backend) BlockStatsDelta() cpu.BlockStats {
	m := b.study.Cfg.Metrics
	cur := cpu.BlockStats{
		Hits:      uint64(m.BlockCacheHits.Load()),
		Misses:    uint64(m.BlockCacheMisses.Load()),
		Flushes:   uint64(m.BlockFlushes.Load()),
		Fallbacks: uint64(m.BlockFallbacks.Load()),
	}
	d := cur.Sub(b.sent)
	b.sent = cur
	return d
}

// ServeWorker runs the worker side of the wire protocol over the given
// stream until the supervisor closes it. The supervising process owns
// shutdown — stdin EOF (clean) or SIGKILL (deadline) — so terminal
// interrupts, which reach the whole process group, are ignored here;
// the drain decision belongs to the parent.
func ServeWorker(r io.Reader, w io.Writer) error {
	signal.Ignore(os.Interrupt, syscall.SIGTERM)
	return wire.Serve(r, w, &Backend{}, WorkerBeatEvery)
}
