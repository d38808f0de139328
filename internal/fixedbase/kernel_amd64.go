package fixedbase

import "math/big"

// haveADX reports whether this CPU runs montRowsADX: it needs ADX (ADCX,
// ADOX) and BMI2 (MULX), CPUID leaf 7's EBX bits 19 and 8.
var haveADX = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<8) != 0 && ebx&(1<<19) != 0
}()

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// montRowsADX runs the k rows of a Montgomery step: for i = 0 … k−1 it adds
// x·y[i] to w[i:i+k], then u·m for u = w[i]·mInv, carrying into w[i+k].
// x, y and m have k words, a positive multiple of 8, and w has 2k+1 whose
// low k are zero. On return w[k:2k+1] holds x·y·R⁻¹ mod m plus 0 or m.
//
//go:noescape
func montRowsADX(w, x, y, m *big.Word, k int, mInv big.Word)
