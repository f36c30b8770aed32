package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/wire"
)

// Executors: how a workload's study is driven end to end.
const (
	execSerial  = "serial"  // kinject, in-process, one machine
	execProcess = "process" // kinject -isolation=process -workers 2
	execFleet   = "fleet"   // kampaignd, one local and one TCP pool
)

// workload is one benchmark input: a study and the executor that runs
// it. BENCHMARK.json says why each one was chosen.
type workload struct {
	name  string
	exec  string
	study study
}

// study is the result-affecting part of a campaign: the same study
// gives the same ResultSet bytes on every executor.
type study struct {
	key        string // names the study in the digest registry
	campaigns  string // "" = the fault model's own campaign set
	model      string // "" = bitflip
	scale      int
	maxTargets int
	maxFuncs   int
}

var sub8 = study{key: "sub8", maxTargets: 8}

var workloads = []workload{
	{"sub8-serial", execSerial, sub8},
	{"campB-full-serial", execSerial, study{key: "campB", campaigns: "B"}},
	{"syscall-s3-serial", execSerial, study{key: "syscall-s3", model: inject.ModelSyscall, scale: 3}},
	{"sub8-process2", execProcess, sub8},
	{"sub8-fleet2", execFleet, sub8},
}

// parallelWorkers is the worker count of the parallel executors. It is
// the CPU count of the machine the baseline was taken on; the load is
// one study at a time, so no run starts more workers than that.
const parallelWorkers = 2

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shrink caps the study to two functions per campaign and two targets
// per function, for smoke tests.
func (s study) shrink() study {
	s.key += "/small"
	s.maxFuncs, s.maxTargets = 2, 2
	return s
}

// kinjectArgs are the study's kinject flags.
func (s study) kinjectArgs(seed int64) []string {
	args := []string{"-seed", strconv.FormatInt(seed, 10)}
	if s.campaigns != "" {
		args = append(args, "-campaigns", s.campaigns)
	}
	if s.model != "" {
		args = append(args, "-fault-model", s.model)
	}
	if s.scale > 1 {
		args = append(args, "-scale", strconv.Itoa(s.scale))
	}
	if s.maxTargets > 0 {
		args = append(args, "-max-targets", strconv.Itoa(s.maxTargets))
	}
	if s.maxFuncs > 0 {
		args = append(args, "-max-funcs", strconv.Itoa(s.maxFuncs))
	}
	return args
}

// submission is the kampaignd POST /campaigns body. It is written out
// field by field, as an API client would, so the benchmark follows the
// HTTP contract rather than the daemon's Go types.
func (s study) submission(seed int64, shardSize int) map[string]any {
	return map[string]any{
		"Seed":                seed,
		"Scale":               max(s.scale, 1),
		"Campaigns":           s.campaigns,
		"FaultModel":          s.model,
		"MaxTargetsPerFunc":   s.maxTargets,
		"MaxFuncsPerCampaign": s.maxFuncs,
		"ShardSize":           shardSize,
	}
}

// config is the study as an in-process core.Config (traced runs and the
// correctness spot check).
func (s study) config(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Scale = max(s.scale, 1)
	cfg.FaultModel = s.model
	cfg.MaxTargetsPerFunc = s.maxTargets
	cfg.MaxFuncsPerCampaign = s.maxFuncs
	cfg.Campaigns = nil // core.New picks the model's own set
	if s.campaigns != "" {
		cs, err := analysis.ParseCampaigns(s.campaigns)
		if err != nil {
			panic(fmt.Sprintf("kbench: study %s: %v", s.key, err))
		}
		cfg.Campaigns = cs
	}
	return cfg
}

// campaignKeys renders a study's campaign list as kinject and the wire
// spec spell it ("ABC").
func campaignKeys(cs []inject.Campaign) string {
	var b strings.Builder
	for _, c := range cs {
		b.WriteString(analysis.CampaignKey(c))
	}
	return b.String()
}

// wireSpec is the spec kinject -isolation=process ships to its workers
// for this study (the supervisor and fleet probes of the traced run).
func wireSpec(st *core.Study) wire.StudySpec {
	return wire.StudySpec{
		Seed:                st.Cfg.Seed,
		Scale:               st.Cfg.Scale,
		Campaigns:           campaignKeys(st.Cfg.Campaigns),
		MaxTargetsPerFunc:   st.Cfg.MaxTargetsPerFunc,
		MaxFuncsPerCampaign: st.Cfg.MaxFuncsPerCampaign,
		FaultModel:          inject.ModelTag(st.Model.Name()),
		MaxRetries:          core.DefaultMaxRetries,
	}
}
