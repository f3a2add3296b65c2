package scenario

// Timeline file serialization: a Scenario round-trips through a small JSON
// document so that fuzz-mined minimal failing timelines can be committed
// under internal/scenario/corpus/ and replayed as ordinary suite members
// (DESIGN.md §12). The format deliberately covers only the declarative
// surface a timeline needs — the cluster shape scalars, the event list, and
// the invariants — not programmatic Options fields (Net profiles, client
// payload generators): corpus scenarios run on the default fabric so their
// verdicts stay portable across fabric-profile changes.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"prestigebft/internal/faults"
	"prestigebft/internal/harness"
	"prestigebft/internal/types"
)

// jsonDur marshals a time.Duration as its String() form ("750ms", "2s") so
// committed timelines stay human-readable and hand-editable.
type jsonDur time.Duration

func (d jsonDur) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *jsonDur) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = jsonDur(v)
	return nil
}

// fileSpec mirrors faults.Spec with a symbolic mode name.
type fileSpec struct {
	Mode          string  `json:"mode"`
	RepeatedVC    bool    `json:"repeated_vc,omitempty"`
	Smart         bool    `json:"smart,omitempty"`
	HashRateScale float64 `json:"hash_rate_scale,omitempty"`
}

func specToFile(s faults.Spec) fileSpec {
	return fileSpec{Mode: s.Mode.String(), RepeatedVC: s.RepeatedVC, Smart: s.Smart, HashRateScale: s.HashRateScale}
}

func (f fileSpec) spec() (faults.Spec, error) {
	var m faults.Mode
	switch f.Mode {
	case "", "correct":
		m = faults.Correct
	case "quiet":
		m = faults.Quiet
	case "equivocate":
		m = faults.Equivocate
	default:
		return faults.Spec{}, fmt.Errorf("unknown fault mode %q", f.Mode)
	}
	return faults.Spec{Mode: m, RepeatedVC: f.RepeatedVC, Smart: f.Smart, HashRateScale: f.HashRateScale}, nil
}

// fileOpts is the serializable subset of harness.Options a timeline file may
// pin. Zero fields keep the harness defaults, exactly like a hand-written
// scenario literal.
type fileOpts struct {
	N                  int                 `json:"n,omitempty"`
	Clients            int                 `json:"clients,omitempty"`
	BatchSize          int                 `json:"batch_size,omitempty"`
	PayloadSize        int                 `json:"payload_size,omitempty"`
	PipelineDepth      int                 `json:"pipeline_depth,omitempty"`
	CheckpointInterval int                 `json:"checkpoint_interval,omitempty"`
	Seed               int64               `json:"seed,omitempty"`
	ClientTimeout      jsonDur             `json:"client_timeout,omitempty"`
	WrapServers        []types.ServerID    `json:"wrap_servers,omitempty"`
	Faults             map[string]fileSpec `json:"faults,omitempty"`
}

// fileEvent is a sum type: exactly one action field is non-nil.
type fileEvent struct {
	At        jsonDur        `json:"at"`
	Crash     *fileCrash     `json:"crash,omitempty"`
	Recover   *fileRecover   `json:"recover,omitempty"`
	Partition *filePartition `json:"partition,omitempty"`
	Heal      *struct{}      `json:"heal,omitempty"`
	SetFault  *fileSetFault  `json:"set_fault,omitempty"`
	Degrade   *fileDegrade   `json:"degrade,omitempty"`
	Restore   *struct{}      `json:"restore,omitempty"`
}

type fileCrash struct {
	Server types.ServerID `json:"server"`
}

type fileRecover struct {
	Server types.ServerID `json:"server"`
}

type filePartition struct {
	Groups [][]types.ServerID `json:"groups"`
}

type fileSetFault struct {
	Server types.ServerID `json:"server"`
	Spec   fileSpec       `json:"spec"`
}

type fileDegrade struct {
	Extra    jsonDur `json:"extra,omitempty"`
	Jitter   jsonDur `json:"jitter,omitempty"`
	DropRate float64 `json:"drop_rate,omitempty"`
}

type fileInvariants struct {
	RecoverWithin     jsonDur        `json:"recover_within,omitempty"`
	RequireViewChange bool           `json:"require_view_change,omitempty"`
	RequireSyncUp     bool           `json:"require_sync_up,omitempty"`
	CatchUpServer     types.ServerID `json:"catch_up_server,omitempty"`
	StallFrom         jsonDur        `json:"stall_from,omitempty"`
	StallTo           jsonDur        `json:"stall_to,omitempty"`
	RequireCheckpoint bool           `json:"require_checkpoint,omitempty"`
	RequireSnapshot   bool           `json:"require_snapshot,omitempty"`
	MaxLedgerBlocks   int            `json:"max_ledger_blocks,omitempty"`
}

// fileScenario is the on-disk document.
type fileScenario struct {
	Name        string         `json:"name"`
	Description string         `json:"description,omitempty"`
	Opts        fileOpts       `json:"opts"`
	Warmup      jsonDur        `json:"warmup,omitempty"`
	Span        jsonDur        `json:"span"`
	Events      []fileEvent    `json:"events"`
	Invariants  fileInvariants `json:"invariants"`
}

// MarshalScenario renders a scenario as an indented timeline document.
// Options fields outside the format (Net profiles, cost models, client
// payload generators) are silently not serialized: the format's contract is
// "default fabric, declarative timeline", which is all the fuzzer generates.
func MarshalScenario(s *Scenario) ([]byte, error) {
	fs := fileScenario{
		Name:        s.Name,
		Description: s.Description,
		Warmup:      jsonDur(s.Warmup),
		Span:        jsonDur(s.Span),
		Opts: fileOpts{
			N:                  s.Opts.N,
			Clients:            s.Opts.Clients,
			BatchSize:          s.Opts.BatchSize,
			PayloadSize:        s.Opts.PayloadSize,
			PipelineDepth:      s.Opts.PipelineDepth,
			CheckpointInterval: s.Opts.CheckpointInterval,
			Seed:               s.Opts.Seed,
			ClientTimeout:      jsonDur(s.Opts.ClientTimeout),
			WrapServers:        append([]types.ServerID(nil), s.Opts.WrapServers...),
		},
		Invariants: fileInvariants{
			RecoverWithin:     jsonDur(s.Invariants.RecoverWithin),
			RequireViewChange: s.Invariants.RequireViewChange,
			RequireSyncUp:     s.Invariants.RequireSyncUp,
			CatchUpServer:     s.Invariants.CatchUpServer,
			StallFrom:         jsonDur(s.Invariants.StallFrom),
			StallTo:           jsonDur(s.Invariants.StallTo),
			RequireCheckpoint: s.Invariants.RequireCheckpoint,
			RequireSnapshot:   s.Invariants.RequireSnapshot,
			MaxLedgerBlocks:   s.Invariants.MaxLedgerBlocks,
		},
	}
	if len(s.Opts.Faults) > 0 {
		fs.Opts.Faults = make(map[string]fileSpec, len(s.Opts.Faults))
		for _, id := range types.SortedKeys(s.Opts.Faults) {
			fs.Opts.Faults[strconv.Itoa(int(id))] = specToFile(s.Opts.Faults[id])
		}
	}
	for _, ev := range s.Events {
		fe := fileEvent{At: jsonDur(ev.At)}
		switch a := ev.Action.(type) {
		case Crash:
			fe.Crash = &fileCrash{Server: a.Server}
		case Recover:
			fe.Recover = &fileRecover{Server: a.Server}
		case Partition:
			fe.Partition = &filePartition{Groups: a.Groups}
		case Heal:
			fe.Heal = &struct{}{}
		case SetFault:
			fe.SetFault = &fileSetFault{Server: a.Server, Spec: specToFile(a.Spec)}
		case Degrade:
			fe.Degrade = &fileDegrade{Extra: jsonDur(a.Extra), Jitter: jsonDur(a.Jitter), DropRate: a.DropRate}
		case Restore:
			fe.Restore = &struct{}{}
		default:
			return nil, fmt.Errorf("event at %v has unserializable action type %T", ev.At, ev.Action)
		}
		fs.Events = append(fs.Events, fe)
	}
	data, err := json.MarshalIndent(&fs, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// UnmarshalScenario parses a timeline document back into a Scenario. The
// result is structurally checked here (exactly one action per event, known
// fault modes); protocol-level checks are Validate's job so loaders report
// both layers distinctly.
func UnmarshalScenario(data []byte) (*Scenario, error) {
	var fs fileScenario
	if err := json.Unmarshal(data, &fs); err != nil {
		return nil, err
	}
	s := &Scenario{
		Name:        fs.Name,
		Description: fs.Description,
		Warmup:      time.Duration(fs.Warmup),
		Span:        time.Duration(fs.Span),
		Opts: harness.Options{
			N:                  fs.Opts.N,
			Clients:            fs.Opts.Clients,
			BatchSize:          fs.Opts.BatchSize,
			PayloadSize:        fs.Opts.PayloadSize,
			PipelineDepth:      fs.Opts.PipelineDepth,
			CheckpointInterval: fs.Opts.CheckpointInterval,
			Seed:               fs.Opts.Seed,
			ClientTimeout:      time.Duration(fs.Opts.ClientTimeout),
			WrapServers:        append([]types.ServerID(nil), fs.Opts.WrapServers...),
		},
		Invariants: Invariants{
			RecoverWithin:     time.Duration(fs.Invariants.RecoverWithin),
			RequireViewChange: fs.Invariants.RequireViewChange,
			RequireSyncUp:     fs.Invariants.RequireSyncUp,
			CatchUpServer:     fs.Invariants.CatchUpServer,
			StallFrom:         time.Duration(fs.Invariants.StallFrom),
			StallTo:           time.Duration(fs.Invariants.StallTo),
			RequireCheckpoint: fs.Invariants.RequireCheckpoint,
			RequireSnapshot:   fs.Invariants.RequireSnapshot,
			MaxLedgerBlocks:   fs.Invariants.MaxLedgerBlocks,
		},
	}
	if len(fs.Opts.Faults) > 0 {
		s.Opts.Faults = make(map[types.ServerID]faults.Spec, len(fs.Opts.Faults))
		for _, k := range types.SortedKeys(fs.Opts.Faults) {
			id, err := strconv.Atoi(k)
			if err != nil || id <= 0 {
				return nil, fmt.Errorf("faults key %q is not a server id", k)
			}
			spec, err := fs.Opts.Faults[k].spec()
			if err != nil {
				return nil, fmt.Errorf("faults[%s]: %w", k, err)
			}
			s.Opts.Faults[types.ServerID(id)] = spec
		}
	}
	for i, fe := range fs.Events {
		var actions []Action
		if fe.Crash != nil {
			actions = append(actions, Crash{Server: fe.Crash.Server})
		}
		if fe.Recover != nil {
			actions = append(actions, Recover{Server: fe.Recover.Server})
		}
		if fe.Partition != nil {
			actions = append(actions, Partition{Groups: fe.Partition.Groups})
		}
		if fe.Heal != nil {
			actions = append(actions, Heal{})
		}
		if fe.SetFault != nil {
			spec, err := fe.SetFault.Spec.spec()
			if err != nil {
				return nil, fmt.Errorf("event %d: %w", i, err)
			}
			actions = append(actions, SetFault{Server: fe.SetFault.Server, Spec: spec})
		}
		if fe.Degrade != nil {
			actions = append(actions, Degrade{
				Extra:    time.Duration(fe.Degrade.Extra),
				Jitter:   time.Duration(fe.Degrade.Jitter),
				DropRate: fe.Degrade.DropRate,
			})
		}
		if fe.Restore != nil {
			actions = append(actions, Restore{})
		}
		if len(actions) != 1 {
			return nil, fmt.Errorf("event %d declares %d actions, want exactly one", i, len(actions))
		}
		s.Events = append(s.Events, Event{At: time.Duration(fe.At), Action: actions[0]})
	}
	return s, nil
}
