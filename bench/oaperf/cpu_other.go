//go:build !unix

package main

import "time"

// processCPU is not measured on this platform; proc.cpu_ms_per_campaign
// reads 0.
func processCPU() time.Duration { return 0 }
