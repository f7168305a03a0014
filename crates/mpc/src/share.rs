//! XOR secret sharing of inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Secret-shares a batch of bit vectors between the two parties: one
/// `(share0, share1)` pair per instance whose XOR is the instance, masks
/// drawn from a single seeded stream.
pub fn share_instances(instances: &[Vec<bool>], seed: u64) -> (Vec<Vec<bool>>, Vec<Vec<bool>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shares0 = Vec::with_capacity(instances.len());
    let mut shares1 = Vec::with_capacity(instances.len());
    for inst in instances {
        let s0: Vec<bool> = inst.iter().map(|_| rng.gen()).collect();
        let s1: Vec<bool> = inst.iter().zip(&s0).map(|(&v, &m)| v ^ m).collect();
        shares0.push(s0);
        shares1.push(s1);
    }
    (shares0, shares1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_xor_back_to_the_input() {
        let bits: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        let (s0, s1) = share_instances(std::slice::from_ref(&bits), 7);
        let rec: Vec<bool> = s0[0].iter().zip(&s1[0]).map(|(&a, &b)| a ^ b).collect();
        assert_eq!(rec, bits);
    }

    #[test]
    fn masks_depend_on_the_seed() {
        let bits = vec![vec![true, false, true, true]; 20];
        assert_ne!(share_instances(&bits, 5).0, share_instances(&bits, 6).0);
    }
}
