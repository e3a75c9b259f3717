package main

import (
	"runtime"
	"runtime/debug"
	"time"
)

// envRecord is stored in every result file so that two sets of numbers can
// be seen to come from comparable machines.
type envRecord struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	DataDirFS  string `json:"data_dir_fs"`
	Seed       int64  `json:"seed"`
}

func readEnv(dataDir string, seed int64) envRecord {
	return envRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		DataDirFS:  filesystemOf(dataDir),
		Seed:       seed,
	}
}

// commit reads the VCS revision the toolchain stamped into the binary;
// "unknown" outside a repository (the driver's checkouts are not one).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown"
}

var spinSink uint64

// spinMs times a fixed CPU-bound loop. It runs before and after every
// workload: the work never changes, so a slow reading means a noisy
// neighbour (or a throttled core), and it is visible in the result file.
func spinMs(iters int) float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return float64(time.Since(start)) / 1e6
}
