package main

import (
	"math/big"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox this benchmark runs in executes the same instructions 10–40 %
// slower for seconds or minutes at a time, depending on what the hypervisor's
// other guests do (README.md, "Machine speed"): the time a thread is charged
// for a fixed piece of work moves with it, and so does everything a CPU-bound
// program measures. A gate cannot live on raw times there. The harness
// therefore times a fixed reference kernel through the run and reports every
// end-to-end time scaled to the speed the reference machine executes that
// kernel at. The raw times and the factors are printed beside them.
//
// The kernel is timed in the CPU time its own thread is charged (the
// thread's CPU-time clock), never in wall time, and only while no operation
// is in flight. Time-sharing inside the machine — a neighbour process taking the
// cores — therefore does not move the factor: a thread that waits for a core
// is not charged for the wait. What moves it is the machine executing
// instructions slower, which is also what inflates the program's own CPU and,
// the program being CPU-bound, its wall time.
//
// The kernel is standard-library code (math/big modular exponentiation, the
// instruction mix of the crypto layers), so no change to this repository
// moves it: a slower program reads slower by the same ratio, raw or scaled.

// refKernelCPU is the CPU time one kernel sample takes on the reference
// machine (the 2-vCPU sandbox, undisturbed).
const refKernelCPU = 11 * time.Millisecond

// kernelGap is the time one sample stands for between operations, which fixes
// what sampling costs at about 2 % of one core.
const kernelGap = 500 * time.Millisecond

// bracketSamples is how many samples open and close the timed section.
const bracketSamples = 4

// Linux's CPU-time clocks: what the process, and the calling thread alone,
// have been charged in user and system time.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuClock reads one of the CPU-time clocks. getrusage reports the same
// quantities less exactly: on the sandbox getrusage(RUSAGE_THREAD) read up to
// 4 ms short on a 15 ms kernel sample that this clock and the wall clock
// agreed on to 0.1 ms.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// kernelModulus is a fixed odd 1024-bit modulus.
var kernelModulus, _ = new(big.Int).SetString(
	"FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"+
		"020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"+
		"4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"+
		"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF", 16)

// runKernel does the fixed work of one sample on a thread of its own and
// returns the CPU time that thread was charged for it.
func runKernel() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	base := big.NewInt(65537)
	c0 := cpuClock(clockThreadCPU)
	for i := 0; i < 20; i++ {
		new(big.Int).Exp(base, kernelModulus, kernelModulus)
	}
	return cpuClock(clockThreadCPU) - c0
}

// kernelSample is one timing of the kernel.
type kernelSample struct {
	at   time.Time
	secs float64 // thread CPU seconds
}

// speedometer collects kernel samples over a run. It is safe for concurrent
// use; callers see to it that no operation is in flight while it samples.
type speedometer struct {
	mu      sync.Mutex
	samples []kernelSample
	// What sampling itself cost, which the harness takes out of the timed
	// section's wall and CPU time.
	spentWall, spentCPU time.Duration
}

// sample takes n samples now.
func (s *speedometer) sample(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sampleLocked(n)
}

func (s *speedometer) sampleLocked(n int) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		d := runKernel()
		s.samples = append(s.samples, kernelSample{at: time.Now(), secs: d.Seconds()})
		s.spentCPU += d
	}
	s.spentWall += time.Since(t0)
}

// maxCatchUp caps the samples one catchUp takes.
const maxCatchUp = 8

// due is how many samples catchUp would take now.
func (s *speedometer) due() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dueLocked()
}

func (s *speedometer) dueLocked() int {
	n := len(s.samples)
	if n == 0 {
		return 1
	}
	return min(int(time.Since(s.samples[n-1].at)/kernelGap), maxCatchUp)
}

// catchUp takes one sample for every kernelGap that has passed since the
// last one (at most maxCatchUp), so the sampling rate is the same whether
// operations take a tenth of a second or four: an operation that ran for
// 3.5 s is followed by seven samples.
func (s *speedometer) catchUp() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sampleLocked(s.dueLocked())
}

// spent is what sampling has cost so far, in wall and in CPU time.
func (s *speedometer) spent() (wall, cpu time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spentWall, s.spentCPU
}

// factor is the reference machine's kernel time over the mean kernel time
// of the samples taken in [from, to]: below 1 when the machine ran slow.
// Multiplying a measured time by it gives the time at reference speed. The
// mean, not the median: a phase integrates over the slow stretches it ran
// through, and so must the factor. With no sample in the window it is 1.
func (s *speedometer) factor(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var in []float64
	for _, k := range s.samples {
		if !k.at.Before(from) && !k.at.After(to) {
			in = append(in, k.secs)
		}
	}
	if len(in) == 0 {
		return 1
	}
	return refKernelCPU.Seconds() / mean(in)
}
