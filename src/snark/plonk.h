/**
 * @file
 * The PlonK zk-SNARK (Gabizon-Williamson-Ciobotaru) over KZG
 * commitments — the second proving scheme of the paper's snarkjs
 * artifact ("the proving time of PlonK is twice as slow compared to
 * Groth16", §IV-A). bench_plonk reproduces that comparison.
 *
 * This is vanilla PlonK with one deliberate simplification: instead
 * of the linearization trick, the prover opens every committed
 * polynomial at the evaluation point (batched into one KZG witness)
 * and the verifier checks the quotient identity numerically. The SRS
 * is sized for the unsplit quotient. Proofs are a few hundred bytes
 * larger and verification does the same two pairing products; prover
 * asymptotics — the object of the paper's comparison — are unchanged.
 *
 * Protocol identity on the domain H (|H| = n, generator w):
 *   qm a b + ql a + qr b + qo c + qc + PI
 *     + alpha [ (a + bx + g)(b + b k1 x + g)(c + b k2 x + g) z
 *             - (a + b s1 + g)(b + b s2 + g)(c + b s3 + g) z(wx) ]
 *     + alpha^2 (z - 1) L1  ==  t * Z_H
 */

#ifndef ZKP_SNARK_PLONK_H
#define ZKP_SNARK_PLONK_H

#include <cassert>
#include <cstdint>
#include <map>
#include <vector>

#include "obs/trace.h"
#include "poly/domain.h"
#include "snark/kzg.h"
#include "snark/transcript.h"

namespace zkp::snark {

/** Wire-variable handle in the PlonK builder. */
using PlonkVar = std::uint32_t;

/** Selector values of one gate. */
template <typename Fr>
struct PlonkGate
{
    Fr qm, ql, qr, qo, qc;
};

/**
 * Records a PlonK circuit: gates with selectors and three wire slots
 * bound to variables; copy constraints derive from variable reuse.
 */
template <typename Fr>
class PlonkBuilder
{
  public:
    /** Allocate a fresh wire variable. */
    PlonkVar newVar() { return nextVar_++; }

    /**
     * Public-input gate (must precede all other gates): pins wire a
     * of the gate to the j-th public input via the PI polynomial.
     */
    void
    addPublicInput(PlonkVar v)
    {
        assert(gates_.size() == numPublic_ &&
               "public inputs must come first");
        ++numPublic_;
        addGate({Fr::zero(), Fr::one(), Fr::zero(), Fr::zero(),
                 Fr::zero()},
                v, newVar(), newVar());
    }

    /** General gate with explicit selectors and wire variables. */
    std::size_t
    addGate(const PlonkGate<Fr>& gate, PlonkVar a, PlonkVar b,
            PlonkVar c)
    {
        gates_.push_back(gate);
        wireA_.push_back(a);
        wireB_.push_back(b);
        wireC_.push_back(c);
        return gates_.size() - 1;
    }

    /** Multiplication gate: a * b = c. */
    std::size_t
    addMul(PlonkVar a, PlonkVar b, PlonkVar c)
    {
        return addGate({Fr::one(), Fr::zero(), Fr::zero(),
                        -Fr::one(), Fr::zero()},
                       a, b, c);
    }

    /** Addition gate: a + b = c. */
    std::size_t
    addAdd(PlonkVar a, PlonkVar b, PlonkVar c)
    {
        return addGate({Fr::zero(), Fr::one(), Fr::one(), -Fr::one(),
                        Fr::zero()},
                       a, b, c);
    }

    std::size_t numGates() const { return gates_.size(); }
    std::size_t numPublic() const { return numPublic_; }
    std::size_t numVars() const { return nextVar_; }

    const std::vector<PlonkVar>& wireA() const { return wireA_; }
    const std::vector<PlonkVar>& wireB() const { return wireB_; }
    const std::vector<PlonkVar>& wireC() const { return wireC_; }
    const std::vector<PlonkGate<Fr>>& gates() const { return gates_; }

  private:
    std::vector<PlonkGate<Fr>> gates_;
    std::vector<PlonkVar> wireA_, wireB_, wireC_;
    PlonkVar nextVar_ = 0;
    std::size_t numPublic_ = 0;
};

/**
 * PlonK over one curve configuration.
 *
 * @tparam Curve snark::Bn254 or snark::Bls381
 */
template <typename Curve>
class Plonk
{
  public:
    using Fr = typename Curve::Fr;
    using KzgScheme = Kzg<Curve>;
    using Srs = typename KzgScheme::Srs;
    using Commitment = typename KzgScheme::Commitment;
    using G1Affine = typename Curve::G1::Affine;

    /// Coset tags separating the three wire columns.
    static Fr k1() { return Fr::fromU64(2); }
    static Fr k2() { return Fr::fromU64(3); }

    /** Preprocessed prover data. */
    struct ProvingKey
    {
        std::size_t n = 0;
        std::size_t numPublic = 0;
        Srs srs;
        /// Selector and permutation polynomials (coefficient form).
        std::vector<Fr> qm, ql, qr, qo, qc;
        std::vector<Fr> s1, s2, s3;
        /// Permutation value vectors on H (for building z).
        std::vector<Fr> s1Vals, s2Vals, s3Vals;
        /// Wire variable bindings for witness synthesis.
        std::vector<PlonkVar> wireA, wireB, wireC;
        std::vector<PlonkGate<Fr>> gates;
    };

    /** Preprocessed verifier data. */
    struct VerifyingKey
    {
        std::size_t n = 0;
        std::size_t numPublic = 0;
        Commitment qm, ql, qr, qo, qc, s1, s2, s3;
        typename Curve::G2::Affine g2, g2Tau;
    };

    /** A PlonK proof (non-linearized variant). */
    struct Proof
    {
        Commitment a, b, c, z, t;
        /// Openings at zeta, in fixed order:
        /// a b c s1 s2 s3 qm ql qr qo qc t z
        std::array<Fr, 13> evals;
        Fr zOmega; ///< z evaluated at zeta * omega
        G1Affine wZeta, wZetaOmega;
    };

    struct Keypair
    {
        ProvingKey pk;
        VerifyingKey vk;
    };

    /**
     * Size of the extended coset domain used for the quotient: must
     * exceed deg(t) = 3n + 5 (blinding included), which 4n only does
     * for n >= 7.
     */
    static std::size_t
    extendedSize(std::size_t n)
    {
        std::size_t ext = 4 * n;
        while (ext < 3 * n + 8)
            ext <<= 1;
        return ext;
    }

    /** Preprocess a built circuit into keys (runs the SRS ceremony). */
    static Keypair
    setup(const PlonkBuilder<Fr>& builder, Rng& rng,
          std::size_t threads = 1)
    {
        ZKP_TRACE_SCOPE("plonk_setup", "gates",
                        (obs::u64)builder.numGates());
        const std::size_t gates = builder.numGates();
        std::size_t n = 2;
        while (n < gates)
            n <<= 1;
        poly::Domain<Fr> domain(n);

        Keypair kp;
        ProvingKey& pk = kp.pk;
        pk.n = n;
        pk.numPublic = builder.numPublic();
        pk.wireA = builder.wireA();
        pk.wireB = builder.wireB();
        pk.wireC = builder.wireC();
        pk.gates = builder.gates();

        // Selector vectors on H (padding gates all zero).
        std::vector<Fr> qm(n, Fr::zero()), ql(n, Fr::zero()),
            qr(n, Fr::zero()), qo(n, Fr::zero()), qc(n, Fr::zero());
        for (std::size_t i = 0; i < gates; ++i) {
            qm[i] = pk.gates[i].qm;
            ql[i] = pk.gates[i].ql;
            qr[i] = pk.gates[i].qr;
            qo[i] = pk.gates[i].qo;
            qc[i] = pk.gates[i].qc;
        }

        // Permutation: positions 0..n-1 = wire a, n.. = b, 2n.. = c.
        // Cycle the positions of every variable.
        std::vector<std::size_t> perm(3 * n);
        for (std::size_t p = 0; p < perm.size(); ++p)
            perm[p] = p; // identity for unused/padding positions
        std::map<PlonkVar, std::vector<std::size_t>> classes;
        for (std::size_t i = 0; i < gates; ++i) {
            classes[pk.wireA[i]].push_back(i);
            classes[pk.wireB[i]].push_back(n + i);
            classes[pk.wireC[i]].push_back(2 * n + i);
        }
        for (const auto& [var, positions] : classes) {
            for (std::size_t j = 0; j < positions.size(); ++j)
                perm[positions[j]] =
                    positions[(j + 1) % positions.size()];
        }

        // Identity labels per position: w^i, k1 w^i, k2 w^i.
        std::vector<Fr> ids(3 * n);
        Fr w = Fr::one();
        for (std::size_t i = 0; i < n; ++i) {
            ids[i] = w;
            ids[n + i] = k1() * w;
            ids[2 * n + i] = k2() * w;
            w *= domain.omega();
        }
        pk.s1Vals.resize(n);
        pk.s2Vals.resize(n);
        pk.s3Vals.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            pk.s1Vals[i] = ids[perm[i]];
            pk.s2Vals[i] = ids[perm[n + i]];
            pk.s3Vals[i] = ids[perm[2 * n + i]];
        }

        // Coefficient forms.
        auto to_coeffs = [&](std::vector<Fr> v) {
            domain.intt(v, threads);
            return v;
        };
        pk.qm = to_coeffs(qm);
        pk.ql = to_coeffs(ql);
        pk.qr = to_coeffs(qr);
        pk.qo = to_coeffs(qo);
        pk.qc = to_coeffs(qc);
        pk.s1 = to_coeffs(pk.s1Vals);
        pk.s2 = to_coeffs(pk.s2Vals);
        pk.s3 = to_coeffs(pk.s3Vals);

        // SRS sized for the unsplit quotient (degree <= 3n + 5) and
        // the extended evaluation domain.
        pk.srs = KzgScheme::setup(extendedSize(n) + 8, rng, threads);

        VerifyingKey& vk = kp.vk;
        vk.n = n;
        vk.numPublic = pk.numPublic;
        vk.qm = KzgScheme::commit(pk.srs, pk.qm, threads);
        vk.ql = KzgScheme::commit(pk.srs, pk.ql, threads);
        vk.qr = KzgScheme::commit(pk.srs, pk.qr, threads);
        vk.qo = KzgScheme::commit(pk.srs, pk.qo, threads);
        vk.qc = KzgScheme::commit(pk.srs, pk.qc, threads);
        vk.s1 = KzgScheme::commit(pk.srs, pk.s1, threads);
        vk.s2 = KzgScheme::commit(pk.srs, pk.s2, threads);
        vk.s3 = KzgScheme::commit(pk.srs, pk.s3, threads);
        vk.g2 = pk.srs.g2;
        vk.g2Tau = pk.srs.g2Tau;
        return kp;
    }

    /**
     * Synthesize the wire value vectors from per-variable values.
     *
     * @param pk proving key
     * @param values value per PlonkVar (index = variable id)
     */
    static std::array<std::vector<Fr>, 3>
    wireValues(const ProvingKey& pk, const std::vector<Fr>& values)
    {
        std::array<std::vector<Fr>, 3> wires;
        for (auto& v : wires)
            v.assign(pk.n, Fr::zero());
        for (std::size_t i = 0; i < pk.gates.size(); ++i) {
            wires[0][i] = values[pk.wireA[i]];
            wires[1][i] = values[pk.wireB[i]];
            wires[2][i] = values[pk.wireC[i]];
        }
        return wires;
    }

    /** Check the gate equations directly (debug/test helper). */
    static bool
    satisfied(const ProvingKey& pk, const std::vector<Fr>& values,
              const std::vector<Fr>& public_inputs)
    {
        auto wires = wireValues(pk, values);
        for (std::size_t i = 0; i < pk.gates.size(); ++i) {
            const auto& g = pk.gates[i];
            Fr pi = i < public_inputs.size() ? -public_inputs[i]
                                             : Fr::zero();
            Fr v = g.qm * wires[0][i] * wires[1][i] +
                   g.ql * wires[0][i] + g.qr * wires[1][i] +
                   g.qo * wires[2][i] + g.qc + pi;
            if (!v.isZero())
                return false;
        }
        return true;
    }

    /** Generate a proof. */
    static Proof
    prove(const ProvingKey& pk, const std::vector<Fr>& values,
          const std::vector<Fr>& public_inputs, Rng& rng,
          std::size_t threads = 1)
    {
        ZKP_TRACE_SCOPE("plonk_prove", "n", (obs::u64)pk.n);
        const std::size_t n = pk.n;
        const std::size_t ext = extendedSize(n);
        poly::Domain<Fr> domain(n);
        poly::Domain<Fr> domain4(ext);
        Transcript<Fr> ts(0xbeef);

        assert(public_inputs.size() == pk.numPublic);
        auto wires = wireValues(pk, values);

        // Round 1: blinded wire polynomials.
        auto blind_wire = [&](std::vector<Fr> v, unsigned nblind) {
            domain.intt(v, threads);
            // + (b_0 + b_1 X + ...) * (X^n - 1)
            v.resize(n + nblind, Fr::zero());
            for (unsigned j = 0; j < nblind; ++j) {
                Fr b = Fr::random(rng);
                v[j] -= b;
                v[n + j] += b;
            }
            return v;
        };
        std::vector<Fr> pa = blind_wire(wires[0], 2);
        std::vector<Fr> pb = blind_wire(wires[1], 2);
        std::vector<Fr> pc = blind_wire(wires[2], 2);

        Proof proof;
        proof.a = KzgScheme::commit(pk.srs, pa, threads);
        proof.b = KzgScheme::commit(pk.srs, pb, threads);
        proof.c = KzgScheme::commit(pk.srs, pc, threads);
        ts.absorbPoint(proof.a);
        ts.absorbPoint(proof.b);
        ts.absorbPoint(proof.c);
        for (const auto& p : public_inputs)
            ts.absorb(p);

        // Round 2: permutation accumulator z.
        const Fr beta = ts.challenge();
        const Fr gamma = ts.challenge();

        std::vector<Fr> zv(n);
        {
            std::vector<Fr> num(n), den(n);
            Fr w = Fr::one();
            for (std::size_t i = 0; i < n; ++i) {
                num[i] = (wires[0][i] + beta * w + gamma) *
                         (wires[1][i] + beta * k1() * w + gamma) *
                         (wires[2][i] + beta * k2() * w + gamma);
                den[i] = (wires[0][i] + beta * pk.s1Vals[i] + gamma) *
                         (wires[1][i] + beta * pk.s2Vals[i] + gamma) *
                         (wires[2][i] + beta * pk.s3Vals[i] + gamma);
                w *= domain.omega();
            }
            ff::batchInverse(den.data(), den.size());
            zv[0] = Fr::one();
            for (std::size_t i = 0; i + 1 < n; ++i)
                zv[i + 1] = zv[i] * num[i] * den[i];
        }
        std::vector<Fr> pz = blind_wire(zv, 3);
        proof.z = KzgScheme::commit(pk.srs, pz, threads);
        ts.absorbPoint(proof.z);

        // Round 3: quotient t on the 4n coset.
        const Fr alpha = ts.challenge();

        auto coset4 = [&](std::vector<Fr> coeffs) {
            coeffs.resize(ext, Fr::zero());
            domain4.cosetNtt(coeffs, threads);
            return coeffs;
        };
        auto ea = coset4(pa);
        auto eb = coset4(pb);
        auto ec = coset4(pc);
        auto ez = coset4(pz);
        // z(wX): scale coefficient i by w^i.
        std::vector<Fr> pzw = pz;
        {
            Fr wi = Fr::one();
            for (auto& cf : pzw) {
                cf *= wi;
                wi *= domain.omega();
            }
        }
        auto ezw = coset4(pzw);
        auto eqm = coset4(pk.qm);
        auto eql = coset4(pk.ql);
        auto eqr = coset4(pk.qr);
        auto eqo = coset4(pk.qo);
        auto eqc = coset4(pk.qc);
        auto es1 = coset4(pk.s1);
        auto es2 = coset4(pk.s2);
        auto es3 = coset4(pk.s3);

        // PI(X) = -sum pub_j L_j(X).
        std::vector<Fr> pi_vals(n, Fr::zero());
        for (std::size_t j = 0; j < public_inputs.size(); ++j)
            pi_vals[j] = -public_inputs[j];
        domain.intt(pi_vals, threads);
        auto epi = coset4(pi_vals);

        // L1(X) on the coset.
        std::vector<Fr> l1(n, Fr::zero());
        l1[0] = Fr::one();
        domain.intt(l1, threads);
        auto el1 = coset4(l1);

        // Z_H on the coset cycles with period ext / n.
        const std::size_t zh_period = ext / n;
        std::vector<Fr> zh_inv(zh_period);
        {
            const Fr gn = domain4.cosetShift().pow((u64)n);
            const Fr w4n = domain4.omega().pow((u64)n);
            Fr cur = gn;
            for (std::size_t j = 0; j < zh_period; ++j) {
                zh_inv[j] = cur - Fr::one();
                cur *= w4n;
            }
            ff::batchInverse(zh_inv.data(), zh_period);
        }

        std::vector<Fr> t4(ext);
        parallelFor(ext, threads,
                    [&](std::size_t, std::size_t lo, std::size_t hi) {
            Fr x = domain4.cosetShift() * domain4.omega().pow((u64)lo);
            for (std::size_t j = lo; j < hi; ++j) {
                const Fr gate = eqm[j] * ea[j] * eb[j] +
                                eql[j] * ea[j] + eqr[j] * eb[j] +
                                eqo[j] * ec[j] + eqc[j] + epi[j];
                const Fr perm1 = (ea[j] + beta * x + gamma) *
                                 (eb[j] + beta * k1() * x + gamma) *
                                 (ec[j] + beta * k2() * x + gamma) *
                                 ez[j];
                const Fr perm2 = (ea[j] + beta * es1[j] + gamma) *
                                 (eb[j] + beta * es2[j] + gamma) *
                                 (ec[j] + beta * es3[j] + gamma) *
                                 ezw[j];
                const Fr boundary =
                    (ez[j] - Fr::one()) * el1[j];
                t4[j] = (gate + alpha * (perm1 - perm2) +
                         alpha * alpha * boundary) *
                        zh_inv[j % zh_period];
                x *= domain4.omega();
            }
        });
        domain4.cosetIntt(t4, threads);
        proof.t = KzgScheme::commit(pk.srs, t4, threads);
        ts.absorbPoint(proof.t);

        // Round 4: evaluations at zeta.
        const Fr zeta = ts.challenge();
        const std::vector<const std::vector<Fr>*> opened{
            &pa, &pb, &pc, &pk.s1, &pk.s2, &pk.s3, &pk.qm, &pk.ql,
            &pk.qr, &pk.qo, &pk.qc, &t4, &pz};
        for (std::size_t i = 0; i < opened.size(); ++i) {
            proof.evals[i] = KzgScheme::evaluate(*opened[i], zeta);
            ts.absorb(proof.evals[i]);
        }
        proof.zOmega =
            KzgScheme::evaluate(pz, zeta * domain.omega());
        ts.absorb(proof.zOmega);

        // Round 5: batched opening proofs.
        const Fr nu = ts.challenge();
        proof.wZeta =
            KzgScheme::openBatch(pk.srs, opened, zeta, nu, threads);
        proof.wZetaOmega = KzgScheme::open(pk.srs, pz,
                                           zeta * domain.omega(),
                                           threads);
        return proof;
    }

    /** Verify a proof against the public inputs. */
    static bool
    verify(const VerifyingKey& vk, const std::vector<Fr>& public_inputs,
           const Proof& proof)
    {
        ZKP_TRACE_SCOPE("plonk_verify");
        if (public_inputs.size() != vk.numPublic)
            return false;
        const std::size_t n = vk.n;
        poly::Domain<Fr> domain(n);
        Transcript<Fr> ts(0xbeef);

        ts.absorbPoint(proof.a);
        ts.absorbPoint(proof.b);
        ts.absorbPoint(proof.c);
        for (const auto& p : public_inputs)
            ts.absorb(p);
        const Fr beta = ts.challenge();
        const Fr gamma = ts.challenge();
        ts.absorbPoint(proof.z);
        const Fr alpha = ts.challenge();
        ts.absorbPoint(proof.t);
        const Fr zeta = ts.challenge();
        for (const auto& e : proof.evals)
            ts.absorb(e);
        ts.absorb(proof.zOmega);
        const Fr nu = ts.challenge();

        // Named openings.
        const Fr &ea = proof.evals[0], &eb = proof.evals[1],
                 &ec = proof.evals[2], &es1 = proof.evals[3],
                 &es2 = proof.evals[4], &es3 = proof.evals[5],
                 &eqm = proof.evals[6], &eql = proof.evals[7],
                 &eqr = proof.evals[8], &eqo = proof.evals[9],
                 &eqc = proof.evals[10], &et = proof.evals[11],
                 &ez = proof.evals[12];

        // Quotient identity at zeta.
        const Fr zh = domain.vanishingAt(zeta);
        if (zh.isZero())
            return false; // zeta in H: resample-worthy, reject
        const Fr l1 = zh * domain.sizeInv() *
                      (zeta - Fr::one()).inverse();

        Fr pi = Fr::zero();
        {
            // PI(zeta) = -sum pub_j L_j(zeta).
            Fr w = Fr::one();
            for (std::size_t j = 0; j < public_inputs.size(); ++j) {
                const Fr lj = zh * domain.sizeInv() * w *
                              (zeta - w).inverse();
                pi -= public_inputs[j] * lj;
                w *= domain.omega();
            }
        }

        const Fr gate = eqm * ea * eb + eql * ea + eqr * eb +
                        eqo * ec + eqc + pi;
        const Fr perm1 = (ea + beta * zeta + gamma) *
                         (eb + beta * k1() * zeta + gamma) *
                         (ec + beta * k2() * zeta + gamma) * ez;
        const Fr perm2 = (ea + beta * es1 + gamma) *
                         (eb + beta * es2 + gamma) *
                         (ec + beta * es3 + gamma) * proof.zOmega;
        const Fr boundary = (ez - Fr::one()) * l1;
        if (gate + alpha * (perm1 - perm2) + alpha * alpha * boundary !=
            et * zh)
            return false;

        // KZG batch opening at zeta over the fixed commitment order.
        typename KzgScheme::Srs srs_view;
        srs_view.g1Powers = {typename Curve::G1::Affine(
            Curve::G1::generator())}; // only [1]_1 needed by verify
        srs_view.g2 = vk.g2;
        srs_view.g2Tau = vk.g2Tau;

        const std::vector<Commitment> cs{
            proof.a, proof.b, proof.c, vk.s1, vk.s2, vk.s3, vk.qm,
            vk.ql, vk.qr, vk.qo, vk.qc, proof.t, proof.z};
        const std::vector<Fr> vals(proof.evals.begin(),
                                   proof.evals.end());
        if (!KzgScheme::verifyBatch(srs_view, cs, zeta, vals, nu,
                                    proof.wZeta))
            return false;
        return KzgScheme::verify(srs_view, proof.z,
                                 zeta * domain.omega(), proof.zOmega,
                                 proof.wZetaOmega);
    }
};

/** The paper's exponentiation circuit in PlonK form: x^e = y. */
template <typename Fr>
struct PlonkExponentiation
{
    PlonkBuilder<Fr> builder;
    PlonkVar yVar, xVar;
    std::size_t exponent;

    explicit PlonkExponentiation(std::size_t e) : exponent(e)
    {
        assert(e >= 2);
        yVar = builder.newVar();
        xVar = builder.newVar();
        builder.addPublicInput(yVar);
        PlonkVar acc = xVar;
        for (std::size_t i = 2; i < e; ++i) {
            PlonkVar next = builder.newVar();
            builder.addMul(acc, xVar, next);
            acc = next;
        }
        builder.addMul(acc, xVar, yVar);
    }

    /** Full variable assignment for secret @p x. */
    std::vector<Fr>
    assign(const Fr& x) const
    {
        std::vector<Fr> values(builder.numVars(), Fr::zero());
        values[xVar] = x;
        values[yVar] = x.pow(BigInt<1>((u64)exponent));
        // Chain wires: x^2 .. x^{e-1}. They were allocated in order
        // starting after the public gate's dummy wires; recompute by
        // replaying the gate list.
        Fr acc = x;
        for (std::size_t i = 1; i + 1 < builder.numGates(); ++i) {
            acc *= x;
            values[builder.wireC()[i]] = acc;
        }
        return values;
    }
};

} // namespace zkp::snark

#endif // ZKP_SNARK_PLONK_H
