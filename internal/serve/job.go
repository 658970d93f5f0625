package serve

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/queries"
	"repro/internal/shard"
	"repro/internal/vcd"
)

// Status is a job's lifecycle state. Transitions are monotonic:
// queued → running → done | failed | cancelled, with queued → cancelled
// permitted for jobs cancelled before dispatch.
type Status string

// Job statuses.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is an end state.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// JobRequest is the submit-API body: which registered dataset to run,
// against which engine, with the execution-shaping knobs the CLI
// exposes. Zero values select the driver defaults (all queries, 4
// instances per unit of scale, seed 1).
type JobRequest struct {
	Dataset string `json:"dataset"`
	System  string `json:"system"`
	// Queries lists short names ("Q1", "Q2a"); empty means the full
	// suite.
	Queries   []string `json:"queries,omitempty"`
	Seed      uint64   `json:"seed,omitempty"`
	Instances int      `json:"instances,omitempty"`
	Validate  bool     `json:"validate,omitempty"`
	// Workers bounds per-worker instance concurrency (0 = machine
	// default).
	Workers int `json:"workers,omitempty"`
	// Shards selects the in-process pipe worker count when the daemon
	// runs without a TCP worker pool (single-node mode). Ignored when
	// worker addresses are configured — the pool size is the shard
	// count there.
	Shards int `json:"shards,omitempty"`
}

// runOptions is the request's run election: the vcd.Options a `vcd`
// invocation with the equivalent flags binds (so both build the same
// plan), range-checked — a submit body is untrusted input. handleSubmit
// answers an error 400 before a job exists; buildPlan runs what passed.
func (r JobRequest) runOptions() (vcd.Options, error) {
	qs, err := queries.ParseList(strings.Join(r.Queries, ","))
	if err != nil {
		return vcd.Options{}, err
	}
	if err := shard.CheckLimits(r.Instances, r.Workers, r.Shards); err != nil {
		return vcd.Options{}, err
	}
	seed := r.Seed
	if seed == 0 {
		seed = 1
	}
	return vcd.Options{
		Queries:           qs,
		InstancesPerScale: r.Instances,
		Seed:              seed,
		Validate:          r.Validate,
		MaxUpsamplePixels: vcd.UpsampleCapCLI,
		Workers:           r.Workers,
		Mode:              vcd.StreamingMode,
	}, nil
}

// Job is one submitted batch as a first-class value: identity, tenant,
// lifecycle status, the request that created it, wall-clock marks, and
// the degradation counters of its shard run. The daemon journals every
// transition to the data dir, so the job list survives restarts.
type Job struct {
	ID          string          `json:"id"`
	Tenant      string          `json:"tenant"`
	Status      Status          `json:"status"`
	Request     JobRequest      `json:"request"`
	SubmittedNS int64           `json:"submitted_ns"`
	StartedNS   int64           `json:"started_ns,omitempty"`
	EndedNS     int64           `json:"ended_ns,omitempty"`
	Err         string          `json:"error,omitempty"`
	Counters    *shard.Counters `json:"counters,omitempty"`

	// cancelRequested marks a running job the cancel API has asked to
	// stop, so the terminal transition reads "cancelled" rather than
	// "failed" when the run returns its context error.
	cancelRequested bool
}

// DatasetInfo is one registered dataset: where workers find it and the
// manifest facts jobs need (the scale factor sizes every batch).
type DatasetInfo struct {
	Name     string  `json:"name"`
	Path     string  `json:"path"`
	Scale    int     `json:"scale"`
	Width    int     `json:"width"`
	Height   int     `json:"height"`
	Duration float64 `json:"duration"`
}

// newJobID mints a random job identifier.
func newJobID() (string, error) {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return "j" + hex.EncodeToString(b[:]), nil
}

// fileStore is the daemon's persistence layer: one JSON file per job
// under jobs/ (rewritten atomically at every transition — the journal
// of submitted jobs), reports under reports/, and the dataset registry
// in datasets.json. Everything is plain indented JSON so the data dir
// is inspectable with standard tools.
type fileStore struct {
	root string
}

func newFileStore(root string) (*fileStore, error) {
	if root == "" {
		return nil, fmt.Errorf("serve: data dir required")
	}
	for _, dir := range []string{root, filepath.Join(root, "jobs"), filepath.Join(root, "reports")} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return &fileStore{root: root}, nil
}

func (fs *fileStore) jobPath(id string) string {
	return filepath.Join(fs.root, "jobs", id+".json")
}

// ReportPath returns where a job's persisted report lives.
func (fs *fileStore) reportPath(id string) string {
	return filepath.Join(fs.root, "reports", id+".json")
}

// saveJob journals one job state atomically.
func (fs *fileStore) saveJob(j *Job) error {
	data, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return err
	}
	return vcd.WriteFileAtomic(fs.jobPath(j.ID), append(data, '\n'))
}

// loadJobs reads the journal back in submission order. An entry that
// does not parse as the job its file name promises (a torn write from a
// crash, a stray edit) is quarantined — renamed to <name>.corrupt, where
// later boots skip it and an operator can still inspect it — and named
// in quarantined; one bad entry must not take the daemon's whole job
// list down with it. Errors reading the directory or a file stay fatal.
func (fs *fileStore) loadJobs() (jobs []*Job, quarantined []string, err error) {
	dir := filepath.Join(fs.root, "jobs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		j := new(Job)
		if json.Unmarshal(data, j) != nil || j.ID+".json" != e.Name() {
			if err := os.Rename(path, path+".corrupt"); err != nil {
				return nil, nil, fmt.Errorf("serve: quarantining corrupt job journal %s: %w", e.Name(), err)
			}
			quarantined = append(quarantined, e.Name())
			continue
		}
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].SubmittedNS != jobs[b].SubmittedNS {
			return jobs[a].SubmittedNS < jobs[b].SubmittedNS
		}
		return jobs[a].ID < jobs[b].ID
	})
	return jobs, quarantined, nil
}

func (fs *fileStore) datasetsPath() string {
	return filepath.Join(fs.root, "datasets.json")
}

// saveDatasets persists the dataset registry atomically.
func (fs *fileStore) saveDatasets(ds map[string]*DatasetInfo) error {
	names := make([]string, 0, len(ds))
	for name := range ds {
		names = append(names, name)
	}
	sort.Strings(names)
	list := make([]*DatasetInfo, 0, len(names))
	for _, name := range names {
		list = append(list, ds[name])
	}
	data, err := json.MarshalIndent(list, "", "  ")
	if err != nil {
		return err
	}
	return vcd.WriteFileAtomic(fs.datasetsPath(), append(data, '\n'))
}

// loadDatasets reads the registry; a missing file is an empty registry.
func (fs *fileStore) loadDatasets() (map[string]*DatasetInfo, error) {
	out := map[string]*DatasetInfo{}
	data, err := os.ReadFile(fs.datasetsPath())
	if os.IsNotExist(err) {
		return out, nil
	}
	if err != nil {
		return nil, err
	}
	var list []*DatasetInfo
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("serve: corrupt dataset registry: %w", err)
	}
	for _, d := range list {
		out[d.Name] = d
	}
	return out, nil
}
