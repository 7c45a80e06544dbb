package uavnet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/uav-coverage/uavnet/internal/atomicfile"
	"github.com/uav-coverage/uavnet/internal/core"
)

// scenarioFile is the on-disk JSON layout, versioned so future format
// changes stay readable.
type scenarioFile struct {
	Version  int       `json:"version"`
	Scenario *Scenario `json:"scenario"`
}

const scenarioFileVersion = 1

// MarshalScenario encodes a scenario as versioned, indented JSON.
func MarshalScenario(sc *Scenario) ([]byte, error) {
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("uavnet: refusing to marshal invalid scenario: %w", err)
	}
	return json.MarshalIndent(scenarioFile{Version: scenarioFileVersion, Scenario: sc}, "", "  ")
}

// UnmarshalScenario decodes and validates a scenario produced by
// MarshalScenario. Decoding is strict: a field name the format does not
// define — a typo'd key, a stale field from another version — is an error,
// not a silent drop, and so is anything after the scenario object. Scenarios
// arrive from untrusted clients (the uavserve POST body is exactly this
// format), and an option silently ignored is the worst possible failure mode:
// the caller gets a valid-looking answer to a different question.
func UnmarshalScenario(data []byte) (*Scenario, error) {
	var f scenarioFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("uavnet: bad scenario JSON: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("uavnet: bad scenario JSON: data after the scenario object")
	}
	if f.Version != scenarioFileVersion {
		return nil, fmt.Errorf("uavnet: unsupported scenario version %d (want %d)", f.Version, scenarioFileVersion)
	}
	if f.Scenario == nil {
		return nil, fmt.Errorf("uavnet: scenario JSON has no scenario object")
	}
	if err := f.Scenario.Validate(); err != nil {
		return nil, fmt.Errorf("uavnet: loaded scenario is invalid: %w", err)
	}
	return f.Scenario, nil
}

// writeFileAtomic writes data to path via a unique temp file in the same
// directory, fsynced and renamed into place with the directory fsynced after
// (see internal/atomicfile). A crash mid-write — even SIGKILL or power loss —
// can then never leave a truncated file at path: readers observe the old
// content or the new, nothing in between, and the observed content is on
// stable storage.
func writeFileAtomic(path string, data []byte) error {
	return atomicfile.WriteFile(path, data, 0o644)
}

// SaveScenario writes a scenario to path as JSON, atomically.
func SaveScenario(path string, sc *Scenario) error {
	data, err := MarshalScenario(sc)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(path, append(data, '\n')); err != nil {
		return fmt.Errorf("uavnet: %w", err)
	}
	return nil
}

// LoadScenario reads a scenario saved by SaveScenario.
func LoadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("uavnet: %w", err)
	}
	return UnmarshalScenario(data)
}

// SaveCheckpoint writes a stopped run's checkpoint to path as JSON, ready
// for LoadCheckpoint and Options.Resume. The write is atomic (temp file plus
// rename), so an interrupted save can never leave a truncated checkpoint
// that would block resuming — the previous file survives instead.
func SaveCheckpoint(path string, cp *Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("uavnet: nil checkpoint")
	}
	data, err := cp.Marshal()
	if err != nil {
		return fmt.Errorf("uavnet: %w", err)
	}
	if err := writeFileAtomic(path, append(data, '\n')); err != nil {
		return fmt.Errorf("uavnet: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint of either kind saved by SaveCheckpoint.
// Resuming validates it against the scenario and options, so loading
// performs only structural checks.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("uavnet: %w", err)
	}
	cp, err := core.UnmarshalCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("uavnet: %w", err)
	}
	return cp, nil
}

// MarshalDeployment encodes a deployment as indented JSON. The encoding is
// deterministic (struct fields, no maps) and excludes the transient
// Checkpoint pointer, so an interrupted-then-resumed run and an
// uninterrupted one marshal to identical bytes — the property the
// resume-equivalence tests and the CI smoke job diff on.
func MarshalDeployment(dep *Deployment) ([]byte, error) {
	if dep == nil {
		return nil, fmt.Errorf("uavnet: nil deployment")
	}
	return json.MarshalIndent(dep, "", "  ")
}

// SaveDeployment writes a deployment to path as JSON, atomically.
func SaveDeployment(path string, dep *Deployment) error {
	data, err := MarshalDeployment(dep)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(path, append(data, '\n')); err != nil {
		return fmt.Errorf("uavnet: %w", err)
	}
	return nil
}
