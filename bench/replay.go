package main

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"time"

	"arboretum/internal/ahe"
	"arboretum/internal/fixed"
	"arboretum/internal/merkle"
	"arboretum/internal/mpc"
	"arboretum/internal/runtime"
	"arboretum/internal/shamir"
	"arboretum/internal/sortition"
	"arboretum/internal/vsr"
	"arboretum/internal/zkp"
)

// Deployment.Run calls the crypto layers internally, where the benchmark
// cannot put a span. A traced run therefore replays each layer's public
// functions at the traced operation's shape, under spans, and attributes
// count × unit cost to the layer; what the replay cannot explain is reported
// as the residual (README.md, "Reconciliation").

// shape is what a replay needs to know about the traced operation.
type shape struct {
	n, c      int
	committee int // members per committee
	keyBits   int // Paillier modulus size
	decrypts  int // ciphertexts the committee decrypts per operation
}

// unitCost is one call's cost in seconds: wall, and process CPU (which
// differs from wall when the call fans out over the worker pool).
type unitCost struct{ wall, cpu float64 }

// layerCosts is the replayed unit cost of every layer function.
type layerCosts struct {
	certify                             unitCost
	keygen, encryptVector, add, decrypt unitCost
	prove, verify                       unitCost
	merkleBuild, merkleProveVerify      unitCost
	sortition                           unitCost
	newField, split, reconstruct        unitCost
	redistribute                        unitCost
	less, mul                           unitCost
	round                               unitCost // one MPC communication round, from Argmax(c)
	ledgerReserveCommit, walAppend      unitCost
}

// replayBatches is how many batches a replay loop is cut into. A loop's unit
// cost is the median over its batches, so a burst of interference that hits
// one batch does not price every call of the layer.
const replayBatches = 5

// timeIt runs f iters times in each of replayBatches batches, all under one
// span, and returns the median batch's per-call cost. f sees a running index.
func timeIt(c opCtx, name string, iters int, f func(i int) error) (unitCost, error) {
	done := c.span("replay." + name)
	defer done()
	var wall, cpu []float64
	for b := 0; b < replayBatches; b++ {
		cpu0, t0 := cpuTime(), time.Now()
		for i := b * iters; i < (b+1)*iters; i++ {
			if err := f(i); err != nil {
				return unitCost{}, fmt.Errorf("replay %s: %w", name, err)
			}
		}
		wall = append(wall, time.Since(t0).Seconds()/float64(iters))
		cpu = append(cpu, (cpuTime()-cpu0).Seconds()/float64(iters))
		c.speed.catchUp()
	}
	return unitCost{wall: median(wall), cpu: median(cpu)}, nil
}

// replayRun replays everything one Deployment.Run of src at shape sh is
// built from: certification of the query text, the crypto layers, and the
// committee engine. scale multiplies every loop (1 in smoke mode).
func replayRun(c opCtx, src string, sh shape, scale int) (*layerCosts, error) {
	lc := &layerCosts{}
	var err error
	if lc.certify, err = timeIt(c, "runtime.Certify", 4*scale, func(int) error {
		_, err := runtime.Certify(src, sh.n, sh.c)
		return err
	}); err != nil {
		return nil, err
	}
	if err := replayRuntimeLayers(c, lc, sh, scale); err != nil {
		return nil, err
	}
	if err := replayMPC(c, lc, sh, scale); err != nil {
		return nil, err
	}
	return lc, nil
}

// replayRuntimeLayers replays the layers Deployment.Run is built from, at
// shape sh. iters scales every loop (1 in smoke mode).
func replayRuntimeLayers(c opCtx, lc *layerCosts, sh shape, iters int) error {
	var err error
	var sk *ahe.PrivateKey
	if lc.keygen, err = timeIt(c, "ahe.GenerateKey", iters, func(int) error {
		sk, err = ahe.GenerateKey(rand.Reader, sh.keyBits)
		return err
	}); err != nil {
		return err
	}
	pub := &sk.PublicKey
	var vecs [][]*ahe.Ciphertext
	if lc.encryptVector, err = timeIt(c, "ahe.EncryptVector", 2*iters, func(i int) error {
		v, err := pub.EncryptVector(rand.Reader, sh.c, i%sh.c)
		vecs = append(vecs, v)
		return err
	}); err != nil {
		return err
	}
	sum := vecs[0][0]
	if lc.add, err = timeIt(c, "ahe.Add", 100*iters, func(i int) error {
		sum, err = pub.Add(sum, vecs[i%len(vecs)][i%sh.c])
		return err
	}); err != nil {
		return err
	}
	// The committee decrypts with a key reassembled from its shares, which
	// takes the λ/μ path rather than the key generator's CRT path.
	shared := ahe.FromSecrets(pub, sk.Lambda(), sk.Mu())
	if lc.decrypt, err = timeIt(c, "ahe.Decrypt", 4*iters, func(i int) error {
		_, err := shared.Decrypt(vecs[i%len(vecs)][i%sh.c])
		return err
	}); err != nil {
		return err
	}

	// zkp: one proof per device, verified once (the verifier refuses a
	// replayed proof, so every iteration proves as a different device).
	perBatch := 100 * iters
	nProofs := replayBatches * perBatch
	keys := make(map[int][]byte, nProofs)
	for d := 0; d < nProofs; d++ {
		keys[d] = []byte(fmt.Sprintf("replay-device-key-%08d", d))
	}
	witness := make([]int64, sh.c)
	witness[0] = 1
	proofs := make([]*zkp.Proof, nProofs)
	if lc.prove, err = timeIt(c, "zkp.Prove", perBatch, func(d int) error {
		stmt := zkp.Statement{Device: d, QueryID: 1, Claim: zkp.Claim{Kind: zkp.ClaimOneHot, VectorLen: sh.c}}
		proofs[d], err = zkp.NewProver(keys[d]).Prove(stmt, zkp.Witness{Vector: witness})
		return err
	}); err != nil {
		return err
	}
	verifier := zkp.NewVerifier(keys)
	if lc.verify, err = timeIt(c, "zkp.Verify", perBatch, func(d int) error {
		if !verifier.Verify(proofs[d]) {
			return fmt.Errorf("honest proof %d rejected", d)
		}
		return nil
	}); err != nil {
		return err
	}

	// merkle: the device registry (n leaves), then one inclusion proof made
	// and checked.
	leaves := make([][]byte, sh.n)
	for i := range leaves {
		leaves[i] = []byte(fmt.Sprintf("device-%d:replay-registry-leaf-padding", i))
	}
	var tree *merkle.Tree
	if lc.merkleBuild, err = timeIt(c, "merkle.New", iters, func(int) error {
		tree, err = merkle.New(leaves)
		return err
	}); err != nil {
		return err
	}
	if lc.merkleProveVerify, err = timeIt(c, "merkle.Prove+Verify", 20*iters, func(i int) error {
		p, err := tree.Prove(i % sh.n)
		if err != nil {
			return err
		}
		if !merkle.Verify(tree.Root(), leaves[i%sh.n], p) {
			return fmt.Errorf("inclusion proof %d rejected", i)
		}
		return nil
	}); err != nil {
		return err
	}

	// sortition: every device's ticket, then the six committees a query
	// draws (two working, four spare).
	block := make([]byte, 32)
	tickets := make([]sortition.Ticket, sh.n)
	committees := min(6, sh.n/sh.committee)
	if lc.sortition, err = timeIt(c, "sortition.MakeTicket*n+Select", iters, func(q int) error {
		for d := range tickets {
			tickets[d] = sortition.MakeTicket(keys[d%nProofs], d, block, uint64(q))
		}
		_, err := sortition.Select(tickets, committees, sh.committee)
		return err
	}); err != nil {
		return err
	}

	// shamir and vsr on the group the runtime shares keys in.
	group := vsr.DefaultGroup()
	var field *shamir.Field
	if lc.newField, err = timeIt(c, "vsr.Group.Field", iters, func(int) error {
		field = group.Field()
		return nil
	}); err != nil {
		return err
	}
	t := sh.committee/2 + 1
	var shares []shamir.Share
	secret := sk.Lambda()
	if lc.split, err = timeIt(c, "shamir.Split", 2*iters, func(int) error {
		shares, err = field.Split(secret, sh.committee, t)
		return err
	}); err != nil {
		return err
	}
	if lc.reconstruct, err = timeIt(c, "shamir.Reconstruct", 2*iters, func(int) error {
		got, err := field.Reconstruct(shares, t)
		if err == nil && got.Cmp(new(big.Int).Mod(secret, group.Q)) != 0 {
			err = fmt.Errorf("reconstructed a different secret")
		}
		return err
	}); err != nil {
		return err
	}
	if lc.redistribute, err = timeIt(c, "vsr.Redistribute", iters, func(int) error {
		shares, err = vsr.Redistribute(group, shares, t, sh.committee, t)
		return err
	}); err != nil {
		return err
	}
	return nil
}

// replayMPC replays the committee engine: comparisons, multiplications, and
// an arg-max over c shared scores whose round count prices one round.
func replayMPC(c opCtx, lc *layerCosts, sh shape, iters int) error {
	eng, err := mpc.NewEngine(sh.committee)
	if err != nil {
		return fmt.Errorf("replay mpc: %w", err)
	}
	vals := make([]mpc.Secret, sh.c)
	for i := range vals {
		vals[i] = eng.JointFixed(fixed.FromInt(int64((i*37)%101 + 1)))
	}
	if lc.less, err = timeIt(c, "mpc.Less", 2*iters, func(i int) error {
		_, err := eng.Less(vals[i%sh.c], vals[(i+1)%sh.c])
		return err
	}); err != nil {
		return err
	}
	if lc.mul, err = timeIt(c, "mpc.Mul", 40*iters, func(i int) error {
		eng.Mul(vals[i%sh.c], vals[(i+1)%sh.c])
		return nil
	}); err != nil {
		return err
	}
	before := eng.Stats().Rounds
	argmax, err := timeIt(c, "mpc.Argmax", iters, func(int) error {
		_, err := eng.Argmax(vals)
		return err
	})
	if err != nil {
		return err
	}
	rounds := float64(eng.Stats().Rounds-before) / float64(replayBatches*iters)
	if rounds > 0 {
		lc.round = unitCost{wall: argmax.wall / rounds, cpu: argmax.cpu / rounds}
	}
	return nil
}

// opCounts is what one operation did, as exact counts.
type opCounts struct {
	accepted  float64 // inputs that passed verification
	proofs    float64
	transfers float64
	rounds    float64
}

// attribute prices one operation from its counts and the replayed unit
// costs, fills the *.attributed_cpu_s metrics, and reports how much of the
// measured CPU per operation the layers explain. The formulas are the ones
// README.md states. The replay runs after the timed section, possibly on a
// machine running at another speed, so both sides are brought to reference
// speed first: the replayed costs by the replay's machine-speed factor, the
// measured CPU by the timed section's.
func attribute(m map[string]float64, sh shape, k opCounts, lc *layerCosts, replaySpeed, cpuPerOp float64) {
	slots := k.accepted * float64(sh.c)
	// The aggregator folds every accepted vector once, and the full-coverage
	// audit folds each chunk a second time.
	adds := 2 * slots
	aheCPU := lc.keygen.cpu + k.accepted*lc.encryptVector.cpu + adds*lc.add.cpu + float64(sh.decrypts)*lc.decrypt.cpu
	zkpCPU := k.proofs * (lc.prove.cpu + lc.verify.cpu)
	// A query generates one key — building the sharing field and splitting λ
	// and μ — and reassembles it once for the decryption vignette, building
	// the field again and reconstructing both.
	shamirCPU := 2*lc.newField.cpu + 2*lc.split.cpu + 2*lc.reconstruct.cpu
	// A hand-off redistributes λ and μ.
	vsrCPU := 2 * k.transfers * lc.redistribute.cpu
	mpcCPU := k.rounds * lc.round.cpu
	total := 0.0
	for name, cpu := range map[string]float64{"ahe": aheCPU, "zkp": zkpCPU, "shamir": shamirCPU, "vsr": vsrCPU, "mpc": mpcCPU} {
		m[name+".attributed_cpu_s"] = cpu * replaySpeed
		total += cpu * replaySpeed
	}
	if cpuPerOp > 0 {
		m["runtime.attributed_cpu_share"] = total / cpuPerOp
		m["runtime.unexplained_cpu_s"] = cpuPerOp - total
	}
}

// unitMetrics writes the replayed unit costs as per-layer metrics; a layer
// that was not replayed has zero cost and reads 0.
func (lc *layerCosts) unitMetrics(m map[string]float64, sh shape) {
	m["certify.us_per_query"] = lc.certify.wall * 1e6
	m["ahe.keygen_ms"] = lc.keygen.wall * 1e3
	m["ahe.encrypt_us"] = lc.encryptVector.wall * 1e6 / float64(max(sh.c, 1)) // per slot
	m["ahe.add_us"] = lc.add.wall * 1e6
	m["ahe.decrypt_us"] = lc.decrypt.wall * 1e6
	m["zkp.prove_us"] = lc.prove.wall * 1e6
	m["zkp.verify_us"] = lc.verify.wall * 1e6
	m["merkle.build_ms"] = lc.merkleBuild.wall * 1e3
	m["merkle.prove_verify_us"] = lc.merkleProveVerify.wall * 1e6
	m["sortition.select_ms"] = lc.sortition.wall * 1e3
	m["shamir.new_field_ms"] = lc.newField.wall * 1e3
	m["shamir.split_us"] = lc.split.wall * 1e6
	m["shamir.reconstruct_us"] = lc.reconstruct.wall * 1e6
	m["vsr.redistribute_ms"] = lc.redistribute.wall * 1e3
	m["mpc.less_us"] = lc.less.wall * 1e6
	m["mpc.mul_us"] = lc.mul.wall * 1e6
	m["mpc.us_per_round"] = lc.round.wall * 1e6
	m["ledger.reserve_commit_us"] = lc.ledgerReserveCommit.wall * 1e6
	m["wal.append_us"] = lc.walAppend.wall * 1e6
}
