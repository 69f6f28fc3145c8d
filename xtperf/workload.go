package main

import (
	"fmt"
	"time"

	"xingtian/internal/algorithm"
	"xingtian/internal/core"
	"xingtian/internal/env"
	"xingtian/internal/fabric"
)

// workload is one benchmark shape. Every workload runs a closed loop:
// explorers are the clients, each bounded by core.DefaultMaxInflight
// un-acknowledged rollouts.
type workload struct {
	name      string
	envName   string
	alg       string // "IMPALA" or "DQN"
	hidden    []int
	explorers int
	rollout   int
	machines  int
	grid      bool // real TCP fabric.Grid on loopback; otherwise one in-process broker
	topo      core.Topology
	// replicated arms int8 weight deltas, learner failover and machine
	// failover with a restart budget of 1, at default heartbeat and lease
	// periods.
	replicated bool
	// kill, when > 0, is the machine the benchmark kills with Grid.Kill
	// killAt into the measured window.
	kill int
}

// killAt places the machine kill at this share of the measured window.
const killAt = 0.3

func replicatedTopo(learnOn []int) core.Topology {
	t := core.ReplicatedTopology(len(learnOn))
	t.LearnMachines = learnOn
	return t
}

// workloads are the benchmark's shapes; README.md gives why each was chosen.
var workloads = []workload{
	// Communication-bound: 14 KB arcade frames per step over real TCP.
	{
		name:    "impala-frames-grid2",
		envName: "BeamRider", alg: "IMPALA", hidden: []int{16, 16},
		explorers: 4, rollout: 100, machines: 2, grid: true,
		topo: core.FusedTopology(),
	},
	// Compute-bound: one machine, no wire, the trainer nearly always busy.
	{
		name:    "dqn-cartpole-local",
		envName: "CartPole", alg: "DQN", hidden: []int{64, 64},
		explorers: 2, rollout: 50, machines: 1,
		topo: core.FusedTopology(),
	},
	// Weight fan-out, int8 deltas, sampler dispatch and aggregation, and
	// heartbeat and lease traffic.
	{
		name:    "impala-replicated-grid3",
		envName: "CartPole", alg: "IMPALA", hidden: []int{64, 64},
		explorers: 4, rollout: 100, machines: 3, grid: true,
		topo: replicatedTopo([]int{0, 0}), replicated: true,
	},
	// Membership verdict, fencing, re-placement and checkpoint restore after
	// Grid.Kill. Not listed in BENCHMARK.json: too unsteady to gate.
	{
		name:    "machine-kill-grid3",
		envName: "CartPole", alg: "IMPALA", hidden: []int{64, 64},
		explorers: 4, rollout: 100, machines: 3, grid: true,
		topo: replicatedTopo([]int{1, 2}), replicated: true, kill: 2,
	},
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// killed is the machine the benchmark kills, or -1 for none.
func (w workload) killed() int {
	if w.kill > 0 {
		return w.kill
	}
	return -1
}

// learners is the number of learn replicas the topology runs.
func (w workload) learners() int {
	if w.topo.Learners < 1 {
		return 1
	}
	return w.topo.Learners
}

// config is the session configuration. The window is the Wait budget; the
// step limit is out of reach so every run is a fixed wall-clock window.
func (w workload) config(window time.Duration) core.Config {
	cfg := core.Config{
		NumExplorers: w.explorers,
		RolloutLen:   w.rollout,
		MaxSteps:     1 << 60,
		MaxDuration:  window,
		Machines:     w.machines,
		Topology:     w.topo,
	}
	if w.replicated {
		cfg.WeightDelta = true
		cfg.WeightQuantBits = 8
		cfg.LearnerFailover = true
		cfg.MaxLearnerRestarts = 1
		cfg.MachineFailover = true
	}
	return cfg
}

// transport builds the real-TCP grid, or nil for the in-process broker.
func (w workload) transport() (*fabric.Grid, error) {
	if !w.grid {
		return nil, nil
	}
	return fabric.NewGrid(w.machines, fabric.GridOptions{})
}

// deadFragments lists the fragments the machine kill takes down: each must
// be taken over exactly once.
func (w workload) deadFragments() []string {
	if w.kill == 0 {
		return nil
	}
	var out []string
	if w.topo.SampleMachine == w.kill {
		out = append(out, core.SampleName)
	}
	if w.topo.BroadcastMachine == w.kill {
		out = append(out, core.BroadcastName)
	}
	for i, m := range w.topo.LearnMachines {
		if m == w.kill {
			out = append(out, core.LearnName(i))
		}
	}
	for i := 0; i < w.explorers; i++ {
		if i%w.machines == w.kill {
			out = append(out, core.ExplorerName(int32(i)))
		}
	}
	return out
}

// deadLearners counts the learn replicas on the killed machine; each is
// re-placed through one quarantine and one respawn.
func (w workload) deadLearners() int64 {
	var n int64
	for _, m := range w.topo.LearnMachines {
		if w.kill > 0 && m == w.kill {
			n++
		}
	}
	return n
}

// factories wraps the zoo's agents, algorithms and environments so the
// benchmark observes them from outside.
func (w workload) factories(rec *recorder) (core.AlgorithmFactory, core.AgentFactory, error) {
	probe, err := env.Make(w.envName, 0)
	if err != nil {
		return nil, nil, err
	}
	spec := algorithm.SpecFor(probe)
	spec.Hidden = w.hidden
	newAgent := func(id int32, seed int64, build func(*algorithm.EnvRunner) core.Agent) (core.Agent, error) {
		e, err := env.Make(w.envName, seed)
		if err != nil {
			return nil, err
		}
		ctx := &rolloutCtx{}
		runner := algorithm.NewEnvRunner(&timedEnv{Env: e, rec: rec, ctx: ctx}, spec)
		return &agentWrap{inner: build(runner), id: id, rec: rec, ctx: ctx}, nil
	}
	switch w.alg {
	case "IMPALA":
		cfg := algorithm.DefaultIMPALAConfig()
		algF := func(seed int64) (core.Algorithm, error) {
			return newAlgWrap(algorithm.NewIMPALA(spec, cfg, seed), rec), nil
		}
		agF := func(id int32, seed int64) (core.Agent, error) {
			return newAgent(id, seed, func(r *algorithm.EnvRunner) core.Agent {
				return algorithm.NewIMPALAAgent(spec, r, seed)
			})
		}
		return algF, agF, nil
	case "DQN":
		cfg := algorithm.DefaultDQNConfig()
		cfg.ReplayCapacity = 100_000
		cfg.TrainStart = 1000
		cfg.LR = 3e-4
		cfg.TargetSyncEvery = 200
		cfg.BroadcastEvery = 10
		algF := func(seed int64) (core.Algorithm, error) {
			return newAlgWrap(algorithm.NewDQN(spec, cfg, seed), rec), nil
		}
		agF := func(id int32, seed int64) (core.Agent, error) {
			return newAgent(id, seed, func(r *algorithm.EnvRunner) core.Agent {
				return algorithm.NewDQNAgent(spec, r, seed)
			})
		}
		return algF, agF, nil
	}
	return nil, nil, fmt.Errorf("workload %s: unknown algorithm %q", w.name, w.alg)
}
