//go:build !linux

package main

func filesystemOf(string) string { return "unknown" }

// cpuMicros is unavailable off Linux; proc.cpu_us_per_op reads 0 there.
func cpuMicros() int64 { return 0 }
