package tensor

import "testing"

// fuzzCSR is the fixed 3×3 sparse operand for fuzzed SpMM ops.
func fuzzCSR() *CSR {
	return NewCSR(3, 3, []int{0, 0, 1, 2, 2}, []int{0, 2, 1, 0, 2},
		[]float64{1, -0.5, 2, 0.25, -1})
}

// fuzzBuild interprets data as a stack-machine program over 3×3 matrices
// and records it on tp. Each byte's low nibble selects the op, the high
// nibble parameterises it (scale factor, activation, checkpoint span). The
// interpretation is fully deterministic, so the same bytes replayed on a
// plain and a scheduled tape must produce bit-identical results.
func fuzzBuild(tp *Tape, data []byte) SchedProbe {
	a := tp.Var(testMat(3, 3, 201))
	b := tp.Var(testMat(3, 3, 202))
	w := tp.Var(testMat(3, 3, 203))
	bias := tp.Var(testMat(1, 3, 204))
	leaves := []*Node{a, b, w, bias}
	stack := []*Node{a, b}
	pop := func() *Node {
		n := stack[len(stack)-1]
		if len(stack) > 1 {
			stack = stack[:len(stack)-1]
		}
		return n
	}
	push := func(n *Node) {
		if len(stack) < 8 {
			stack = append(stack, n)
		}
	}
	acts := [...]Act{ActIdent, ActSigmoid, ActTanh, ActReLU, ActLeakyReLU}

	applyOp := func(op byte) {
		hi := float64(op>>4)/8 - 0.9 // deterministic parameter in [-0.9, 0.975]
		switch op % 16 {
		case 0:
			push(tp.Add(pop(), pop()))
		case 1:
			push(tp.Sub(pop(), pop()))
		case 2:
			push(tp.Mul(pop(), pop()))
		case 3:
			push(tp.MatMul(pop(), pop()))
		case 4:
			push(tp.Scale(pop(), hi))
		case 5:
			push(tp.AddScalar(pop(), hi))
		case 6:
			push(tp.Sigmoid(pop()))
		case 7:
			push(tp.Tanh(pop()))
		case 8:
			push(tp.ReLU(pop()))
		case 9:
			push(tp.LeakyReLU(pop(), 0.1))
		case 10:
			push(tp.Affine(pop(), w, bias, acts[int(op>>4)%len(acts)]))
		case 11:
			push(tp.SpMM(fuzzCSR(), pop()))
		case 12:
			z := tp.Sigmoid(pop())
			y := pop()
			push(tp.Lerp(pop(), y, z))
		case 13:
			push(stack[len(stack)-1]) // dup: aliased consumption
		case 15:
			push(tp.Exp(tp.Scale(pop(), 0.1)))
		}
	}

	i := 0
	for i < len(data) {
		op := data[i]
		i++
		if op%16 == 14 {
			// Checkpoint segment wrapping the next 1..4 ops; everything
			// still on the stack at close crosses the boundary and must
			// be pinned, exactly like the trainer pins the hidden state.
			span := int(op>>4)%4 + 1
			tp.Checkpoint(func() {
				for j := 0; j < span && i < len(data); j++ {
					inner := data[i]
					i++
					if inner%16 == 14 {
						inner = 7 // no nesting: remap to Tanh
					}
					applyOp(inner)
				}
				tp.Keep(stack...)
			})
			continue
		}
		applyOp(op)
	}

	loss := tp.SumAll(stack[0])
	for _, n := range stack[1:] {
		loss = tp.Add(loss, tp.SumAll(n))
	}
	outs := append([]*Node(nil), stack...)
	return SchedProbe{Loss: loss, Outputs: outs, Leaves: leaves}
}

// FuzzTapeSchedule feeds random op DAGs through the differential harness:
// the scheduled executor (lifetime release + rematerialization)
// must produce bit-identical outputs and leaf gradients to the plain
// record-order executor, with no use-after-release and an exactly balanced
// arena (the harness checks get/put deltas and the live-byte ledger).
func FuzzTapeSchedule(f *testing.F) {
	seeds := []string{
		"0123456789:;<=>?",                 // every opcode once, checkpoint near the tail
		"33773377",                         // MatMul/Tanh chains
		">012>345>678",                     // repeated checkpoint segments
		"=3=3=3",                           // dup + self-MatMul aliasing
		"J6:7J6:7",                         // Affine/activation mixes
		"N01N01N01",                        // single-op segments back to back
		"<<<???",                           // Lerp pressure then Exp chain
		"4455445544",                       // elementwise chains (Scale/AddScalar)
		";8;8;8",                           // SpMM/ReLU chains
		"\x0e\x0e\x0e\x0e",                 // checkpoint ops with nothing to wrap
		"?N3?N3",                           // Exp, segment-wrapped MatMul
		"0123456789:;<=>?@ABCDEFGHIJKLMNO", // two full opcode sweeps
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 64 {
			t.Skip()
		}
		if err := AssertSchedEquiv(SchedAll, func(tp *Tape) SchedProbe {
			return fuzzBuild(tp, data)
		}); err != nil {
			t.Fatal(err)
		}
	})
}
