package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"

	"github.com/edgeml/edgetrain/internal/parallel"
)

// envBlock is written by the machine, never by hand: two result files are
// the same experiment only if these agree.
type envBlock struct {
	NProc           int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	ParallelWorkers int    `json:"parallel_workers"`
	GoVersion       string `json:"go_version"`
	CPUModel        string `json:"cpu_model"`
	Kernel          string `json:"kernel"`
	GitCommit       string `json:"git_commit"`
	ScratchFS       string `json:"scratch_fs"`
}

// tunedEnv are the variables that change what the program under test does
// without leaving a trace in the code: worker count, collector pacing,
// memory limit, runtime debug switches.
var tunedEnv = []string{"EDGETRAIN_WORKERS", "GOGC", "GOMEMLIMIT", "GODEBUG"}

func refuseTunedEnv() error {
	for _, name := range tunedEnv {
		if v, ok := os.LookupEnv(name); ok {
			return fmt.Errorf("%s=%q is set; unset it, results must all come from the default runtime", name, v)
		}
	}
	return nil
}

func readEnv(scratchRoot string) envBlock {
	e := envBlock{
		NProc:           runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		ParallelWorkers: parallel.Workers(),
		GoVersion:       runtime.Version(),
		CPUModel:        "unknown",
		Kernel:          "unknown",
		GitCommit:       "unknown",
		ScratchFS:       fsType(scratchRoot),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(data))
	}
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.GitCommit = strings.TrimSpace(string(rev))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
			e.GitCommit += "+dirty"
		}
	}
	return e
}

// fsNames maps statfs magic numbers to names for the filesystems a scratch
// root is likely to sit on. The old hand-written baseline measured a tmpfs
// without saying so.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
}

func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
