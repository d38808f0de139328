package ahe

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"testing"
)

// foldRows encrypts one packed row per device — all-ones where ones(i),
// one-hot at cat(i) elsewhere — folds them column by column, decrypts and
// unpacks the sums, and returns the counts next to the exact histogram.
func foldRows(t *testing.T, sk *PrivateKey, p *Packing, devices int, ones func(i int) bool, cat func(i int) int) (got, want []int64) {
	t.Helper()
	pk := &sk.PublicKey
	want = make([]int64, p.Cells())
	cols := make([][]*Ciphertext, p.Ciphertexts())
	for i := 0; i < devices; i++ {
		var row []*Ciphertext
		var err error
		if ones(i) {
			row, err = p.EncryptOnes(rand.Reader)
			for c := range want {
				want[c]++
			}
		} else {
			row, err = p.Encrypt(rand.Reader, cat(i))
			want[cat(i)]++
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(row) != p.Ciphertexts() {
			t.Fatalf("row of %d ciphertexts, codec packs into %d", len(row), p.Ciphertexts())
		}
		for k, ct := range row {
			cols[k] = append(cols[k], ct)
		}
	}
	pts := make([]*big.Int, len(cols))
	for k, col := range cols {
		sum, err := foldSum(pk, col)
		if err != nil {
			t.Fatal(err)
		}
		if pts[k], err = sk.Decrypt(sum); err != nil {
			t.Fatal(err)
		}
	}
	got, err := p.Unpack(pts)
	if err != nil {
		t.Fatal(err)
	}
	return got, want
}

// TestPackingFoldsExactHistogram folds up to N packed rows, honest and
// all-ones, and decodes the exact histogram: at C = digits (one full
// ciphertext) and C = digits + 1 (the first shape that needs two), at the
// bin protocol's 16·C cells, and at N = 2^k − 1 — the largest N that gets a
// k-bit digit — where all-ones rows from every device fill each digit to
// 2^k − 1, as full as the no-carry bound allows.
func TestPackingFoldsExactHistogram(t *testing.T) {
	sk, err := GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	digitsFor := func(devices int) int {
		p, err := sk.NewPacking(devices, 1)
		if err != nil {
			t.Fatal(err)
		}
		return p.digits
	}
	shapes := []struct{ devices, cells int }{
		{63, digitsFor(63)},
		{63, digitsFor(63) + 1},
		{255, 16 * 4},
		{255, 16 * 32},
		{1, 3},
	}
	spread := func(cells int) func(int) int {
		return func(i int) int { return (i*7919 + 3) % cells }
	}
	for _, sh := range shapes {
		p, err := sk.NewPacking(sh.devices, sh.cells)
		if err != nil {
			t.Fatal(err)
		}
		if want := (sh.cells + p.digits - 1) / p.digits; p.Ciphertexts() != want {
			t.Errorf("N=%d C=%d: %d ciphertexts, want ⌈C/digits⌉ = %d", sh.devices, sh.cells, p.Ciphertexts(), want)
		}
		if 1<<p.width <= sh.devices || p.digits*p.width > sk.N.BitLen()-2 {
			t.Errorf("N=%d: digit width %d × %d digits does not fit the bound", sh.devices, p.width, p.digits)
		}
		mixes := []struct {
			name string
			ones func(int) bool
		}{
			{"honest", func(int) bool { return false }},
			{"mixed", func(i int) bool { return i%4 == 1 }},
			{"all-ones", func(int) bool { return true }},
		}
		for _, mix := range mixes {
			t.Run(fmt.Sprintf("N%d.C%d/%s", sh.devices, sh.cells, mix.name), func(t *testing.T) {
				got, want := foldRows(t, sk, p, sh.devices, mix.ones, spread(sh.cells))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("unpacked %v, histogram %v", got, want)
				}
				if mix.name == "all-ones" && sh.devices == 1<<p.width-1 && got[sh.cells-1] != int64(1<<p.width-1) {
					t.Errorf("last digit %d, want the full 2^w − 1 = %d", got[sh.cells-1], 1<<p.width-1)
				}
			})
		}
	}
}

// TestPackingRefusesOutOfRange: a packed plaintext that is negative or has a
// bit above its ciphertext's last digit is refused with ErrPackedRange, not
// decoded into garbage counts. A carry planted inside the valid range — 2^w
// in cell 0's digit — decodes as one count in cell 1: it is in range, so the
// codec cannot tell, and only a validity proof bound to the upload rules it
// out.
func TestPackingRefusesOutOfRange(t *testing.T) {
	sk, err := GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := sk.NewPacking(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sk.NewPacking(100, probe.digits) // one full ciphertext
	if err != nil {
		t.Fatal(err)
	}
	full := new(big.Int).Lsh(one, uint(p.digits*p.width))
	last, err := sk.NewPacking(100, p.digits+2) // second ciphertext holds two cells
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		codec *Packing
		pts   []*big.Int
	}{
		{"−1", p, []*big.Int{big.NewInt(-1)}},
		{"2^(digits·w)", p, []*big.Int{full}},
		{"past a short last chunk", last, []*big.Int{big.NewInt(0), new(big.Int).Lsh(one, uint(2*p.width))}},
	}
	for _, tc := range cases {
		// Round-trip through a ciphertext, as the committee sees it.
		pts := make([]*big.Int, len(tc.pts))
		for k, m := range tc.pts {
			ct, err := sk.Encrypt(rand.Reader, m)
			if err != nil {
				t.Fatal(err)
			}
			if pts[k], err = sk.Decrypt(ct); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := tc.codec.Unpack(pts); !errors.Is(err, ErrPackedRange) {
			t.Errorf("%s: Unpack = %v, %v; want ErrPackedRange", tc.name, got, err)
		}
	}
	below := new(big.Int).Sub(full, one)
	if got, err := p.Unpack([]*big.Int{below}); err != nil || got[p.digits-1] != 1<<p.width-1 {
		t.Errorf("2^(digits·w) − 1: Unpack = %v, %v", got, err)
	}
	carry := new(big.Int).Lsh(one, uint(p.width))
	if got, err := p.Unpack([]*big.Int{carry}); err != nil || got[0] != 0 || got[1] != 1 {
		t.Errorf("a carry out of cell 0: Unpack = %v, %v; want it read as cell 1", got, err)
	}
	if _, err := p.Unpack(nil); err == nil {
		t.Error("Unpack of the wrong number of plaintexts succeeded")
	}
}

// TestNewPackingValidation: the codec refuses an empty row, a negative
// device count and a key too short for one digit, and sizes its digit to
// the device count. NewPacking reads only the modulus' length, so
// hand-built keys stand in for generated ones.
func TestNewPackingValidation(t *testing.T) {
	small := &PublicKey{N: big.NewInt(1000)} // 10 bits: 8 usable
	for _, tc := range []struct{ devices, cells int }{{10, 0}, {-1, 4}, {1000, 4}} {
		if _, err := small.NewPacking(tc.devices, tc.cells); err == nil {
			t.Errorf("NewPacking(%d, %d) on a 10-bit key succeeded", tc.devices, tc.cells)
		}
	}
	key512 := &PublicKey{N: new(big.Int).Lsh(one, 511)}
	for devices, w := range map[int]int{0: 1, 1: 1, 2: 2, 3: 2, 63: 6, 64: 7, 2047: 11, 2048: 12} {
		p, err := key512.NewPacking(devices, 16)
		if err != nil || p.width != w || p.digits != 510/w || p.Ciphertexts() != 1 {
			t.Errorf("512-bit key, %d devices × 16 cells: %+v, %v; want width %d", devices, p, err, w)
		}
	}
}

// TestRowCiphertexts holds RowCiphertexts, the count a deployment sizes its
// key's table by before the key exists, to the codec's own Ciphertexts over
// key sizes, device counts and row widths, and to 0 where NewPacking
// refuses the key.
func TestRowCiphertexts(t *testing.T) {
	for _, keyBits := range []int{10, 256, 512, 2048} {
		pk := &PublicKey{N: new(big.Int).Lsh(one, uint(keyBits-1))}
		for _, devices := range []int{0, 8, 96, 2048, 1 << 20} {
			for _, cells := range []int{1, 8, 32, 72, 73, 512} {
				want := 0
				if p, err := pk.NewPacking(devices, cells); err == nil {
					want = p.Ciphertexts()
				}
				if got := RowCiphertexts(keyBits, devices, cells); got != want {
					t.Errorf("%d-bit key, %d devices × %d cells: %d ciphertexts, the codec packs %d", keyBits, devices, cells, got, want)
				}
			}
		}
	}
}
